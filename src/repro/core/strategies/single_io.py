"""Multiple queues, Single IO thread (§IV-B).

One IO thread serves every PE's wait queue round-robin, "one by one", so
that "the IO thread can serve same number of requests for each wait queue
at a time, thereby serving all PEs equally".  Fetches are serial through
the single thread — which is exactly why this strategy collapses on
Stencil3D ("the IO thread needs to perform prefetch of blocks for each
chare on each PE", Figure 8) yet keeps up on MatMul, where read-only block
reuse means most dependences are already resident (Figure 9).

Eviction is synchronous on the finishing worker: "When a task finishes
execution, it evicts its data dependences to DDR4...  If the IO thread is
sleeping, the task wakes it up after the eviction."
"""

from __future__ import annotations

import typing as _t

from repro.core.ooc_task import OOCTask
from repro.core.strategies.base import Strategy
from repro.runtime.pe import PE
from repro.sim.sync import Gate
from repro.trace.events import TraceCategory

__all__ = ["SingleIOThreadStrategy"]

IO_LANE = "io0"


class SingleIOThreadStrategy(Strategy):
    """One wait queue per PE, a single shared IO thread."""

    name = "single-io"
    intercepts = True

    def __init__(self) -> None:
        super().__init__()
        self.gate: Gate | None = None
        self._rr_start = 0

    def setup(self) -> None:
        mgr = self._mgr()
        self._require_pes()
        self.gate = Gate(mgr.env, name="single-io.gate")
        mgr.env.process(self._io_main(), name="io-thread")

    # -- worker side ---------------------------------------------------------

    def submit(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Pre-processing: park the task; signal the IO thread."""
        mgr = self._mgr()
        yield from mgr.charge_queue_op(f"pe{pe.id}")
        pe.wait_enqueue(task)
        assert self.gate is not None
        self.gate.open()

    def task_finished(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Post-processing: synchronous eviction, then wake the IO thread."""
        mgr = self._mgr()
        for victim in mgr.eviction.post_task_victims(task, mgr.tracker):
            if victim.in_hbm and not victim.in_use and not victim.pinned:
                yield from self.evict_block(
                    victim, f"pe{pe.id}", TraceCategory.POSTPROCESS_EVICT,
                    reason="post-task")
        assert self.gate is not None
        self.gate.open()

    # -- IO thread -------------------------------------------------------------

    def _io_main(self) -> _t.Generator:
        mgr = self._mgr()
        pes = mgr.pes
        assert self.gate is not None
        while True:
            self.gate.close()
            progress = yield from self._scan_once(pes)
            if progress:
                continue
            if self.gate.is_open:
                # signalled while we were scanning; rescan
                continue
            yield self.gate.wait()

    def _scan_once(self, pes: list[PE]) -> _t.Generator:
        """One fair pass: at most one task fetched per PE wait queue."""
        mgr = self._mgr()
        progress = yield from self.maintain_watermarks(IO_LANE)
        n = len(pes)
        for k in range(n):
            pe = pes[(self._rr_start + k) % n]
            if not pe.wait_queue:
                continue
            yield from mgr.charge_queue_op(IO_LANE)
            task = pe.wait_dequeue()
            assert task is not None
            if not self.can_fetch_task(task):
                # "if allocating a data block would exceed the remaining
                # HBM capacity, then the IO thread goes to sleep" — we
                # requeue and let the pass finish; sleep happens in the
                # main loop when no progress was made.
                pe.wait_requeue_front(task)
                continue
            ok = yield from self.fetch_task_blocks(
                task, IO_LANE, TraceCategory.IO_FETCH)
            if ok:
                self.make_ready(pe, task)
                progress = True
            else:
                pe.wait_requeue_front(task)
        self._rr_start = (self._rr_start + 1) % n
        return progress
