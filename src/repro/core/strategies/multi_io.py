"""Multiple queues, Multiple IO threads — fully asynchronous (§IV-B).

"There is one IO thread per worker thread...  Each IO thread pops tasks
from the wait queue of that PE and brings in data till the HBM is full.
All IO threads are likely working in parallel, hence there is no starvation
problem."  The paper schedules each IO thread "on the hyperthread cores
corresponding to the worker threads"; here an IO thread is a simulated
process of its own that takes no worker core, and the SMT layout is not
modelled.  Its copies draw on the mover's per-thread bandwidth.

The IO thread also evicts, so that both fetch *and* evict are asynchronous,
matching the strategy's stated benefit: a finishing worker only queues its
task's victims for its IO thread.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.core.ooc_task import OOCTask
from repro.core.strategies.base import Strategy
from repro.mem.block import DataBlock
from repro.runtime.pe import PE
from repro.sim.sync import Gate
from repro.trace.events import TraceCategory

__all__ = ["MultiIOThreadStrategy"]


class MultiIOThreadStrategy(Strategy):
    """One wait queue and one IO thread per PE; asynchronous fetch/evict."""

    name = "multi-io"
    intercepts = True

    #: ready-task depth per PE the IO thread may build up.  The paper
    #: prefetches "till the HBM is full", but with 64 IO threads that
    #: over-pins HBM (every ready task holds refcounts on its blocks) and
    #: forces demand-eviction churn of shared blocks; a small bound keeps
    #: the pipeline fed while leaving room for reuse.
    prefetch_ahead = 4

    def __init__(self) -> None:
        super().__init__()
        self.gates: dict[int, Gate] = {}
        self.evict_requests: dict[int, deque[DataBlock]] = {}

    def setup(self) -> None:
        mgr = self._mgr()
        for pe in self._require_pes():
            self.gates[pe.id] = Gate(mgr.env, name=f"multi-io.gate{pe.id}")
            self.evict_requests[pe.id] = deque()
            mgr.env.process(self._io_main(pe), name=f"io-thread-{pe.id}")

    # -- worker side ---------------------------------------------------------

    def submit(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Pre-processing is now trivial: enqueue and wake the local IO thread."""
        mgr = self._mgr()
        yield from mgr.charge_queue_op(self.pe_lanes[pe.id])
        pe.wait_enqueue(task)
        self.gates[pe.id].open()

    def task_finished(self, pe: PE, task: OOCTask) -> _t.Generator:
        self.evict_requests[pe.id].extend(self.post_task_victims(task))
        # A completion releases reference counts, which can make blocks
        # evictable for *other* PEs' stalled fetches — broadcast the wake
        # (the paper wakes only the local IO thread, which can deadlock
        # when capacity is freed logically rather than by an eviction).
        self._wake_after_evict(pe)
        return
        yield  # pragma: no cover

    def post_task_victims(self, task: OOCTask) -> list[DataBlock]:
        """Eviction candidates after ``task`` completed (overridable).

        The base policy delegates to the manager's eviction policy;
        subclasses with more context (e.g. a phase timeline proving a
        block is about to be reused) may filter the list.
        """
        mgr = self._mgr()
        return mgr.eviction.post_task_victims(task, mgr.tracker)

    def _wake_after_evict(self, pe: PE) -> None:
        """Open ``pe``'s gate, then every IO thread's.

        IO threads sleeping on a full HBM whose space was freed by
        *another* PE must make progress; the paper wakes only the local
        IO thread, which is deadlock-prone.
        """
        self.gates[pe.id].open()
        for gate in self.gates.values():
            gate.open()

    # -- IO thread (one per PE) ---------------------------------------------------

    def _io_main(self, pe: PE) -> _t.Generator:
        mgr = self._mgr()
        gate = self.gates[pe.id]
        lane = f"io{pe.id}"
        requests = self.evict_requests[pe.id]
        while True:
            gate.close()
            progress = False
            # Serve eviction requests first: they create the space fetches
            # need ("allowing any more additional tasks to have their data
            # prefetched and be scheduled").
            evicted_any = False
            while requests:
                victim = requests.popleft()
                if victim.in_hbm and not victim.in_use and not victim.pinned:
                    yield from self.evict_block(
                        victim, lane, TraceCategory.IO_EVICT,
                        reason="post-task")
                    progress = True
                    evicted_any = True
            if evicted_any:
                self._wake_after_evict(pe)
                gate.close()
            # Keep the free-space reserve topped up so fetches below never
            # wait on eviction.
            wm = yield from self.maintain_watermarks(lane)
            if wm:
                progress = True
                self._wake_after_evict(pe)
                gate.close()
            # Fetch "till the HBM is full" — bounded by the ready-depth
            # limit so the pipeline stays fed without over-pinning HBM.
            while pe.wait_queue and len(pe.run_queue) < self.prefetch_ahead:
                yield from mgr.charge_queue_op(lane)
                task = pe.wait_dequeue()
                assert task is not None
                if not self.can_fetch_task(task):
                    pe.wait_requeue_front(task)
                    break
                ok = yield from self.fetch_task_blocks(
                    task, lane, TraceCategory.IO_FETCH)
                if ok:
                    self.make_ready(pe, task)
                    progress = True
                else:
                    pe.wait_requeue_front(task)
                    break
            if progress or gate.is_open:
                continue
            # Idle: let subclasses use the spare IO bandwidth (e.g.
            # phase-guided lookahead prefetch) before parking on the gate.
            busy = yield from self.io_idle_work(pe, lane)
            if busy:
                continue
            yield gate.wait()

    def io_idle_work(self, pe: PE, lane: str) -> _t.Generator:
        """Extra work for an otherwise idle IO thread (generator).

        Called when the wait queue is drained and no evictions are
        pending, before the thread parks on its gate.  Returns True if
        progress was made (the loop re-runs instead of sleeping).  The
        base strategy has nothing to do off the demand path.
        """
        return False
        yield  # pragma: no cover
