"""Strategy base class with the shared fetch/evict machinery.

Everything timing-critical is a generator meant to run inside a simulated
process (a worker PE's converse loop or an IO thread).  The base class
centralises the fiddly parts every strategy needs:

* fetching a block (reserve HBM space → move → unreserve), including
  waiting on a move already in flight from another fetcher;
* verifying all of a task's dependences are resident and re-fetching
  stragglers ("It then verifies that all its dependences have been brought
  into HBM", §IV-B);
* marking a task ready: bump refcounts and push a
  :class:`~repro.runtime.interception.ReadyTask` onto the PE run queue;
* evicting a block back to DDR4.
"""

from __future__ import annotations

import typing as _t
import weakref

from repro import hooks as _probe
from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.mem.block import BlockState, DataBlock
from repro.runtime.interception import ReadyTask
from repro.runtime.pe import PE
from repro.core.ooc_task import OOCTask, TaskState
from repro.trace.events import TraceCategory

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import OOCManager

__all__ = ["Strategy"]


def _detached() -> None:
    """The manager reference of a strategy not attached yet."""
    return None


class Strategy:
    """Base class for all scheduling strategies."""

    #: registry name (paper series label)
    name = "abstract"
    #: False for static-placement baselines (messages are never intercepted)
    intercepts = True

    def __init__(self) -> None:
        #: returns the attached manager, else None: a weak reference,
        #: because the manager holds its strategy
        self._manager: _t.Callable[[], "OOCManager | None"] = _detached
        self.fetches = 0
        self.evictions = 0
        self.bytes_fetched = 0
        self.bytes_evicted = 0
        #: set by can_fetch_task when the fetch must demand-evict first
        self._needs_demand_evict = False
        #: memoized watermark scan: (epoch, nothing_found)
        self._wm_seen_epoch = -1
        #: memoized freeable-bytes estimate: (epoch, bytes)
        self._freeable_cache: tuple[int, int] = (-1, 0)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def manager(self) -> "OOCManager | None":
        """The manager this strategy is attached to, else None."""
        return self._manager()

    def attach(self, manager: "OOCManager") -> None:
        self._manager = weakref.ref(manager)
        #: each worker PE's trace lane, indexed by PE id
        self.pe_lanes = [f"pe{pe.id}" for pe in manager.pes]
        self.setup()

    def setup(self) -> None:
        """Spawn IO threads etc.  Called once, from :meth:`attach`."""

    # -- placement ---------------------------------------------------------------

    def place_initial(self, blocks: _t.Iterable[DataBlock]) -> None:
        """Initial residency before the application starts.

        Prefetch strategies allocate everything on DDR4: "data is allocated
        on DDR4 and fetched into MCDRAM before being accessed" (§V-B).
        Baselines override this.
        """
        mgr = self._mgr()
        for block in blocks:
            mgr.topology.place_block(block, mgr.ddr)

    # -- scheduling hooks (called by the OOC manager) ------------------------------

    def submit(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Pre-processing for an intercepted task, on the worker PE."""
        raise NotImplementedError
        yield  # pragma: no cover

    def task_finished(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Post-processing after the entry method ran, on the worker PE."""
        raise NotImplementedError
        yield  # pragma: no cover

    def retry_waiting(self, pe: PE) -> _t.Generator:
        """Re-attempt this PE's waiting tasks (RetryFetch handler)."""
        return
        yield  # pragma: no cover

    # -- shared machinery -----------------------------------------------------------

    def _mgr(self) -> "OOCManager":
        manager = self._manager()
        if manager is None:
            raise SchedulingError(f"strategy {self.name!r} is not attached")
        return manager

    def _require_pes(self) -> list[PE]:
        """The runtime's PEs, validated non-empty.

        IO-thread strategies scan PE wait queues round-robin (``% n``); a
        zero-PE runtime must fail loudly at :meth:`setup` instead of with a
        ``ZeroDivisionError`` on the first scan.
        """
        pes = self._mgr().pes
        if not pes:
            raise ConfigError(
                f"strategy {self.name!r} needs at least one PE; "
                "the runtime was built with zero worker threads")
        return pes

    def fetch_block(self, block: DataBlock, lane: str,
                    category: TraceCategory = TraceCategory.IO_FETCH
                    ) -> _t.Generator:
        """Bring one block into HBM (generator).

        Assumes the caller already verified capacity via
        ``manager.tracker.can_fit`` — reservation failures raise.
        If the block is being moved by someone else, waits for that move.
        """
        mgr = self._mgr()
        if block.state is BlockState.INHBM:
            if _probe.on_fetch_hit is not None:
                _probe.on_fetch_hit(block, lane)
            return True
        if block.moving:
            if _probe.on_fetch_joined is not None:
                _probe.on_fetch_joined(block, lane)
            yield mgr.inflight_event(block)
            return True
        started = mgr.env.now
        if _probe.on_fetch_issued is not None:
            _probe.on_fetch_issued(block, lane)
        reservation = mgr.tracker.reserve(block.nbytes)
        done_event = mgr.begin_inflight(block)
        finalized = False
        try:
            yield from mgr.mover.move(block, mgr.hbm)
        except GeneratorExit:
            # the garbage collector is finalizing a runtime dropped
            # mid-move: its bookkeeping died with it, and end_inflight's
            # probe point would reach a later run's subscribers
            finalized = True
            raise
        except CapacityError:
            # Fragmentation on the HBM free list: byte accounting said the
            # block fits but no contiguous range did.  Report "no space".
            if _probe.on_fetch_canceled is not None:
                _probe.on_fetch_canceled(block, lane)
            return False
        finally:
            if not finalized:
                mgr.tracker.unreserve(reservation)
                mgr.end_inflight(block, done_event)
        self.fetches += 1
        self.bytes_fetched += block.nbytes
        if _probe.on_fetch is not None:
            _probe.on_fetch(block, lane, category, started, mgr.env.now)
        return True

    def evict_block(self, block: DataBlock, lane: str,
                    category: TraceCategory = TraceCategory.IO_EVICT,
                    *, reason: str = "demand") -> _t.Generator:
        """Push one idle block back to DDR4 (generator).

        ``reason`` labels the eviction counter: ``post-task`` (the paper's
        synchronous post-processing eviction), ``watermark`` (proactive
        page-out-daemon style), or ``demand`` (making room for a fetch).
        """
        mgr = self._mgr()
        if block.state is not BlockState.INHBM:
            return
        if block.in_use or block.pinned:
            raise SchedulingError(
                f"evicting in-use/pinned block {block.name!r}")
        started = mgr.env.now
        done_event = mgr.begin_inflight(block)
        finalized = False
        try:
            yield from mgr.mover.move(block, mgr.ddr)
        except GeneratorExit:
            finalized = True  # see fetch_block
            raise
        finally:
            if not finalized:
                mgr.end_inflight(block, done_event)
        self.evictions += 1
        self.bytes_evicted += block.nbytes
        if _probe.on_evict is not None:
            _probe.on_evict(block, lane, category, started, mgr.env.now,
                            reason)

    #: proactive eviction watermarks, as fractions of the HBM budget: when
    #: uncommitted space drops below ``low``, evict (demand-aware LRU)
    #: until ``high`` is free again.  Keeps evictions off the fetch
    #: critical path, like an OS page-out daemon.
    watermark_low = 0.06
    watermark_high = 0.12

    def maintain_watermarks(self, lane: str,
                            category: TraceCategory = TraceCategory.IO_EVICT
                            ) -> _t.Generator:
        """Proactively evict until the free-space reserve is restored.

        Returns True if anything was evicted.
        """
        mgr = self._mgr()
        budget = mgr.tracker.budget
        if mgr.tracker.uncommitted >= self.watermark_low * budget:
            return False
        # The reserve exists to feed *upcoming* fetches: size it by what
        # the tasks still sitting in wait queues actually miss.  For a
        # fitting working set (nothing missing) this is zero — evicting
        # would purge hot data the next iteration refetches.
        pending_missing = self.pending_missing(
            max(1, int(self.watermark_high * budget)))
        low = min(int(self.watermark_low * budget), pending_missing)
        if mgr.tracker.uncommitted >= low or pending_missing == 0:
            return False
        # memoize fruitless scans until the next task completion
        # (manager.change_epoch; moves do not bump it)
        if self._wm_seen_epoch == mgr.change_epoch:
            return False
        high = min(int(self.watermark_high * budget), pending_missing)
        needed = high - mgr.tracker.uncommitted
        victims = mgr.eviction.make_space_victims(mgr.registry, needed,
                                                  include_demanded=False)
        if not victims:
            self._wm_seen_epoch = mgr.change_epoch
            return False
        evicted = False
        for victim in victims:
            if victim.in_hbm and not victim.in_use and not victim.pinned:
                yield from self.evict_block(victim, lane, category,
                                            reason="watermark")
                evicted = True
        return evicted

    def pending_missing(self, cap: int) -> int:
        """Missing bytes of the tasks in every wait queue, summed until
        the partial sum reaches ``cap``.

        ``task.missing`` is never negative, so a sum stopped at ``cap`` is
        as good as the full one for ``min(x, full)`` with ``x <= cap`` and
        for the ``== 0`` test — which is all the watermarks ask.
        """
        total = 0
        for pe in self._mgr().pes:
            for task in pe.wait_queue:
                total += task.missing
                if total >= cap:
                    return total
        return total

    def missing_bytes(self, task: OOCTask) -> int:
        """Bytes of ``task``'s dependences not in (or moving to) HBM.

        Reads the task's running ``missing`` count, valid while the task
        is queued (see :class:`~repro.core.ooc_task.OOCTask`).
        """
        return task.missing

    def can_fetch_task(self, task: OOCTask) -> bool:
        """Would the whole task's missing data fit right now?

        When HBM is over-committed, checks (cheaply, with early exit)
        whether enough *evictable* bytes exist to make room; the actual
        victim selection is deferred to :meth:`fetch_task_blocks` so the
        expensive demand-aware ordering runs once per fetch, not once per
        capacity probe.
        """
        mgr = self._mgr()
        need = self.missing_bytes(task)
        if need == 0:
            return True
        if mgr.tracker.can_fit(need):
            return True
        shortfall = need - mgr.tracker.uncommitted
        # One freeable sum over the idle index per change epoch (one per
        # task completion); probes between completions reuse it, lagging
        # moves until the next completion.
        epoch, freeable_total = self._freeable_cache
        if epoch != mgr.change_epoch:
            freeable_total = sum(
                block.nbytes for block in mgr.registry.evictable_blocks())
            self._freeable_cache = (mgr.change_epoch, freeable_total)
        # the task's own resident blocks are about to be retained, so they
        # cannot be victims — subtract them from the freeable estimate
        own_resident = sum(
            block.nbytes for block in task.blocks
            if block.state is BlockState.INHBM and not block.in_use
            and not block.pinned)
        if freeable_total - own_resident >= shortfall:
            self._needs_demand_evict = True
            return True
        return False

    def fetch_task_blocks(self, task: OOCTask, lane: str,
                          category: TraceCategory = TraceCategory.IO_FETCH,
                          evict_category: TraceCategory = TraceCategory.IO_EVICT
                          ) -> _t.Generator:
        """Fetch every missing dependence of ``task``; returns True on success.

        May return False when HBM filled up mid-fetch (partial progress is
        kept, as in the paper); the caller requeues the task.

        Dependences are *retained at fetch start* — the paper increments
        the reference counter "every time a task depending on the block is
        scheduled", i.e. when the IO thread starts processing it.  This is
        what protects shared read-only blocks (MatMul's panels) from being
        evicted between two consecutive uses: the next task's fetch has
        already pinned them.  On failure the retention is rolled back.
        """
        mgr = self._mgr()
        if _probe.on_serve is not None:
            _probe.on_serve(task, lane)
        if not task.retained:
            task.retain_all(mgr.env.now)
        # On-demand eviction flagged by can_fetch_task: pick victims now
        # (once per fetch) with the demand-aware policy ordering.
        if self._needs_demand_evict:
            self._needs_demand_evict = False
            shortfall = self.missing_bytes(task) - mgr.tracker.uncommitted
            if shortfall > 0:
                victims = mgr.eviction.make_space_victims(mgr.registry,
                                                          shortfall)
                for victim in victims:
                    if victim.state is BlockState.INHBM and not victim.in_use:
                        yield from self.evict_block(victim, lane,
                                                    evict_category,
                                                    reason="demand")
        for _attempt in range(3):
            for block in task.blocks:
                if block.state is BlockState.INHBM:
                    continue
                if block.moving:
                    yield mgr.inflight_event(block)
                    continue
                if not mgr.tracker.can_fit(block.nbytes):
                    task.release_all()
                    return False
                fetched = yield from self.fetch_block(block, lane, category)
                if not fetched:
                    task.release_all()
                    return False
            if task.all_resident():
                return True
        # Three verification passes failed: blocks are being evicted under
        # us faster than we fetch them — treat as "no space".
        task.release_all()
        return False

    def make_ready(self, pe: PE, task: OOCTask) -> None:
        """Retain dependences and hand the task to the converse scheduler."""
        mgr = self._mgr()
        if not task.all_resident():
            raise SchedulingError(
                f"task #{task.tid} scheduled with non-resident dependences")
        if not task.retained:
            # zero-missing-dependence fast path skipped fetch_task_blocks
            task.retain_all(mgr.env.now)
        task.state = TaskState.READY
        target_pe = mgr.pick_run_queue(pe)
        target_pe.run_queue.put(ReadyTask(task.message, task))
        mgr.tasks_readied += 1
