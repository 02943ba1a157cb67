"""Phase-scheduled placement replaying the bwlint v2 timeline (8th policy).

:class:`~repro.core.strategies.static_guided.StaticGuidedStrategy`
consumes only the *aggregate* per-site traffic of a GuidanceFile; this
strategy replays the **phase timeline**
(:mod:`repro.lint.phases`) on top of the full multi-IO machinery:

* the current phase is observed from the entry methods being submitted
  (``"Cls.entry"`` mapped through the guidance phase table — the
  runtime never re-analyzes source, same contract as static-guided);
* at a phase boundary, blocks whose site the analyzer proved
  *phase-dead* (``last_phase`` behind the new phase) are enqueued for
  asynchronous eviction — the REP310 remediation, applied at runtime;
* idle IO threads prefetch blocks whose site first becomes hot in the
  *next* phase (:meth:`MultiIOThreadStrategy.io_idle_work`), so the
  lookahead fetch rides otherwise-wasted IO bandwidth and never blocks
  the demand path.

With an empty phase table every hook degrades to a no-op and the
strategy behaves exactly like ``multi-io``.
"""

from __future__ import annotations

import typing as _t

from repro.core.ooc_task import OOCTask
from repro.core.strategies.multi_io import MultiIOThreadStrategy
from repro.core.strategies.static_guided import (_resolve_guidance,
                                                 block_site_id)
from repro.mem.block import BlockState, DataBlock
from repro.runtime.pe import PE
from repro.trace.events import TraceCategory

if _t.TYPE_CHECKING:
    from repro.lint.guidance import GuidanceFile

__all__ = ["PhaseGuidedStrategy"]


class PhaseGuidedStrategy(MultiIOThreadStrategy):
    """Multi-IO scheduling driven by the bwlint v2 phase timeline."""

    name = "phase-guided"
    intercepts = True

    def __init__(self) -> None:
        super().__init__()
        self._guidance: "GuidanceFile | None" = None
        #: highest phase index observed from submitted entries
        self.phase = -1
        #: "Cls.entry" -> earliest phase containing that entry
        self._entry_phase: dict[str, int] = {}
        #: site id -> (first_phase, last_phase)
        self._intervals: dict[str, tuple[int, int]] = {}
        #: memoized lookahead plan: (phase it was built for, blocks)
        self._lookahead: tuple[int, list[DataBlock]] = (-2, [])
        #: recomputed at each phase boundary: True when the phase-hot
        #: working set fits HBM, enabling post-task victim retention
        self._retain_hot = False

    # -- guidance resolution (shared with StaticGuidedStrategy) ------------

    def guidance(self) -> "GuidanceFile":
        if self._guidance is None:
            self._guidance = _resolve_guidance()
        return self._guidance

    def setup(self) -> None:
        super().setup()
        guide = self.guidance()
        for ph in guide.phase_table():
            for entry in ph.get("entries", ()):
                prev = self._entry_phase.get(entry)
                if prev is None or ph["index"] < prev:
                    self._entry_phase[entry] = ph["index"]
        for site_id in guide.sites:
            first = guide.first_phase(site_id)
            last = guide.last_phase(site_id)
            if first is not None and last is not None:
                self._intervals[site_id] = (first, last)

    # -- phase tracking ----------------------------------------------------

    def _task_entry_id(self, task: OOCTask) -> str:
        return f"{type(task.chare).__name__}.{task.message.entry.name}"

    def _observe_phase(self, pe: PE, task: OOCTask) -> None:
        phase = self._entry_phase.get(self._task_entry_id(task))
        if phase is None or phase <= self.phase:
            return
        self.phase = phase
        self._retain_hot = self._phase_set_fits()
        self._request_phase_dead_evictions(pe)

    def _phase_set_fits(self) -> bool:
        """Does the current phase's hot working set fit the HBM budget?

        Retaining post-task victims only pays when the whole phase-hot
        set can stay resident; in a streaming phase (hot set larger than
        HBM) retention merely shifts the same evictions onto the demand
        path, serial with the fetches they unblock.
        """
        mgr = self._mgr()
        hot_bytes = 0
        for block in mgr.registry:
            site = block_site_id(block)
            interval = self._intervals.get(site) if site else None
            if interval is not None \
                    and interval[0] <= self.phase <= interval[1]:
                hot_bytes += block.nbytes
        budget = mgr.tracker.budget
        return hot_bytes <= (1.0 - self.watermark_high) * budget

    def _request_phase_dead_evictions(self, pe: PE) -> None:
        """Queue blocks of phase-dead sites onto this PE's IO thread.

        The IO thread applies the usual in-use/pinned guards before the
        actual eviction, so a site the analyzer believed dead but which a
        straggler task still holds simply stays resident.
        """
        mgr = self._mgr()
        requests = self.evict_requests[pe.id]
        queued = {block.bid for block in requests}
        for block in mgr.registry:
            if block.bid in queued or block.state is not BlockState.INHBM:
                continue
            site = block_site_id(block)
            interval = self._intervals.get(site) if site else None
            if interval is not None and interval[1] < self.phase:
                requests.append(block)
        if requests:
            self.gates[pe.id].open()

    # -- worker side -------------------------------------------------------

    def submit(self, pe: PE, task: OOCTask) -> _t.Generator:
        self._observe_phase(pe, task)
        yield from super().submit(pe, task)

    def post_task_victims(self, task: OOCTask) -> list[DataBlock]:
        """Keep phase-hot blocks resident; evict only what the timeline
        allows.

        The eviction policy nominates everything a finished task used,
        which on an iterative phase (stencil's exchange, trips=N) evicts
        blocks the very next iteration refetches.  A site whose liveness
        interval still covers the current phase is provably about to be
        reused — dropping it from the victim list converts that churn
        into residency.  Demand eviction still reclaims them if a fetch
        genuinely needs the space.
        """
        victims = super().post_task_victims(task)
        if self.phase < 0 or not self._retain_hot:
            return victims
        kept: list[DataBlock] = []
        for victim in victims:
            site = block_site_id(victim)
            interval = self._intervals.get(site) if site else None
            if interval is not None and interval[1] >= self.phase:
                continue
            kept.append(victim)
        return kept

    # -- IO-thread lookahead -----------------------------------------------

    def _lookahead_blocks(self) -> list[DataBlock]:
        """Blocks whose site first becomes hot in the next phase."""
        target = self.phase + 1
        built_for, blocks = self._lookahead
        if built_for == target:
            return blocks
        mgr = self._mgr()
        blocks = []
        for block in mgr.registry:
            site = block_site_id(block)
            interval = self._intervals.get(site) if site else None
            if interval is not None and interval[0] == target:
                blocks.append(block)
        self._lookahead = (target, blocks)
        return blocks

    def io_idle_work(self, pe: PE, lane: str) -> _t.Generator:
        """Prefetch next-phase-hot blocks with the idle IO bandwidth."""
        progress = False
        mgr = self._mgr()
        for block in self._lookahead_blocks():
            if block.state is BlockState.INHBM or block.moving:
                continue
            if not mgr.tracker.can_fit(block.nbytes):
                break  # never demand-evict for a lookahead fetch
            fetched = yield from self.fetch_block(
                block, lane, TraceCategory.IO_FETCH)
            if not fetched:
                break
            progress = True
        return progress
