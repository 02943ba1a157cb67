"""Multiple queues, no IO thread — synchronous parallel fetch (§IV-B).

"When a task arrives on a PE, if there is sufficient allocation space in
HBM, it fetches its own data in the preprocessing step...  If there is no
space in HBM, it adds itself to the PE's wait queue."  Fetch and eviction
are parallel across PEs (no single-thread bottleneck) but *synchronous*:
they run inside the converse loop and are charged to the worker — the
~20 ms pre-processing bars of Figure 6a.

One completion beyond the paper's text: a PE whose waiters could not fetch
is only re-checked "when a task finishes execution ... on its PE".  If the
space was freed by *another* PE's eviction, the starved PE would never look
again — a real deadlock on working sets that clog HBM with shared blocks.
We close the gap by posting a :class:`~repro.runtime.interception.RetryFetch`
nudge to starved PEs after evictions elsewhere.
"""

from __future__ import annotations

import typing as _t

from repro.core.ooc_task import OOCTask
from repro.core.strategies.base import Strategy
from repro.runtime.interception import RetryFetch
from repro.runtime.pe import PE
from repro.trace.events import TraceCategory

__all__ = ["NoIOThreadStrategy"]


class NoIOThreadStrategy(Strategy):
    """Each task fetches/evicts its own data on its worker PE."""

    name = "no-io"
    intercepts = True

    def __init__(self) -> None:
        super().__init__()
        #: PEs with a RetryFetch already queued (avoid flooding)
        self._retry_pending: set[int] = set()

    # -- worker side -----------------------------------------------------------

    def submit(self, pe: PE, task: OOCTask) -> _t.Generator:
        mgr = self._mgr()
        yield from mgr.charge_queue_op(f"pe{pe.id}")
        if self.can_fetch_task(task):
            ok = yield from self.fetch_task_blocks(
                task, f"pe{pe.id}",
                TraceCategory.PREPROCESS_FETCH,
                evict_category=TraceCategory.POSTPROCESS_EVICT)
            if ok:
                self.make_ready(pe, task)
                return
        pe.wait_enqueue(task)

    def task_finished(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Evict own blocks, then try to schedule waiters on this PE.

        "After evicting its own data, it checks in the wait queue on its
        PE, to see if there are any tasks waiting to be scheduled on the
        PE.  As a result of its own data eviction, it can now bring in data
        blocks for a waiting task and schedules the task."
        """
        mgr = self._mgr()
        lane = f"pe{pe.id}"
        evicted = False
        for victim in mgr.eviction.post_task_victims(task, mgr.tracker):
            if victim.in_hbm and not victim.in_use and not victim.pinned:
                yield from self.evict_block(
                    victim, lane, TraceCategory.POSTPROCESS_EVICT,
                    reason="post-task")
                evicted = True
        yield from self.maintain_watermarks(
            lane, TraceCategory.POSTPROCESS_EVICT)
        yield from self._drain_waiters(pe)
        # Always nudge: this completion released refcounts, so another
        # PE's parked task may now be schedulable even if nothing was
        # physically evicted here.
        self._nudge_starved_pes(except_pe=pe.id)

    def retry_waiting(self, pe: PE) -> _t.Generator:
        """RetryFetch handler: re-attempt this PE's wait queue."""
        self._retry_pending.discard(pe.id)
        yield from self._drain_waiters(pe)

    # -- internals -----------------------------------------------------------------

    def _drain_waiters(self, pe: PE) -> _t.Generator:
        mgr = self._mgr()
        lane = f"pe{pe.id}"
        while pe.wait_queue:
            head = pe.wait_queue[0]
            if not self.can_fetch_task(head):
                break
            yield from mgr.charge_queue_op(lane)
            waiting = pe.wait_dequeue()
            assert waiting is head
            ok = yield from self.fetch_task_blocks(
                waiting, lane, TraceCategory.PREPROCESS_FETCH,
                evict_category=TraceCategory.POSTPROCESS_EVICT)
            if ok:
                self.make_ready(pe, waiting)
            else:
                pe.wait_requeue_front(waiting)
                break

    def _nudge_starved_pes(self, except_pe: int) -> None:
        """Post RetryFetch to parked PEs whose head task could now fit."""
        mgr = self._mgr()
        for other in mgr.pes:
            if other.id == except_pe or not other.wait_queue:
                continue
            if other.id in self._retry_pending:
                continue
            # cheap pre-filter: skip PEs whose head task still cannot fit
            # even before demand eviction (avoids retry storms)
            head = other.wait_queue[0]
            if self.missing_bytes(head) > mgr.tracker.budget - mgr.tracker.reserved:
                continue
            self._retry_pending.add(other.id)
            other.run_queue.put(RetryFetch())
