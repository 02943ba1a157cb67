"""The OOC manager: the interception layer installed into the runtime.

Owns the strategy, the HBM tracker, the eviction policy and the
"pre-processing / post-processing" glue that charmxi would generate for
``[prefetch]`` entry methods (§IV-B).  Implements the
:class:`repro.runtime.interception.Interceptor` protocol.
"""

from __future__ import annotations

import typing as _t
from itertools import count

from repro import hooks as _probe
from repro.core.eviction import EvictionPolicy, OwnBlocksEviction
from repro.core.hbm import HBMTracker
from repro.core.ooc_task import OOCTask, TaskState
from repro.errors import CapacityError, ConfigError, SchedulingError
from repro.mem.block import BlockState, DataBlock
from repro.runtime.message import Message
from repro.runtime.pe import PE
from repro.runtime.runtime import CharmRuntime
from repro.sim.events import Event
from repro.units import format_size

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.strategies.base import Strategy

__all__ = ["OOCManager"]

#: cost of one lock-protected queue operation, seconds (§IV-B lock delays)
QUEUE_LOCK_COST = 1e-6


class OOCManager:
    """Glue between the runtime, a strategy and the HBM tracker."""

    def __init__(self, runtime: CharmRuntime, strategy: "Strategy", *,
                 eviction: EvictionPolicy | None = None,
                 node_level_run_queue: bool = False):
        #: the runtime's PEs; the runtime itself is not kept, because it
        #: holds this manager as its interceptor
        self.pes = runtime.pes
        self.env = runtime.env
        self.machine = runtime.machine
        self.topology = self.machine.topology
        self.registry = self.machine.registry
        self.mover = self.machine.mover
        self.hbm = self.topology.hbm
        self.ddr = self.topology.ddr
        self.tracker = HBMTracker(self.hbm)
        self.eviction = eviction if eviction is not None else OwnBlocksEviction()
        #: paper future work: one node-level run queue instead of per-PE
        self.node_level_run_queue = node_level_run_queue
        self.strategy = strategy
        #: per-block in-flight move completion events
        self._inflight: dict[int, Event] = {}
        self.tasks_intercepted = 0
        #: this run's task numbers
        self._task_ids = count()
        self.tasks_readied = 0
        self.tasks_completed = 0
        self.placement_done = False
        #: bumped once per task completion (post_process), when retained
        #: blocks become evictable; lets scanners memoize negative results.
        #: Moves do not bump it, so a memo may lag a move until the next
        #: completion
        self.change_epoch = 0
        #: active :class:`repro.lint.sanitizer.SimSanitizer`, or None (set
        #: by ``SimSanitizer.install(manager)``)
        self.sanitizer: _t.Any = None
        strategy.attach(self)
        runtime.install_interceptor(self)

    # -- placement ------------------------------------------------------------

    def finalize_placement(self) -> None:
        """Place every registered block per the strategy's initial rule.

        Call after the application declared its blocks (setup phase) and
        before compute messages flow.  A working set the machine cannot
        hold is a configuration error naming the full device.
        """
        if self.placement_done:
            raise SchedulingError("finalize_placement called twice")
        unplaced = [b for b in self.registry
                    if b.allocation is None or not b.allocation.live]
        try:
            self.strategy.place_initial(unplaced)
        except CapacityError as exc:
            if exc.device is None:
                raise
            device = self.topology.device(exc.device)
            # the working set less what the strategy put on other devices
            asked = sum(b.nbytes for b in unplaced
                        if b.device is None or b.device is device)
            raise ConfigError(
                f"{self.strategy.name} placement asked {device.name} to "
                f"hold {format_size(asked)} but it holds "
                f"{format_size(device.capacity)}") from None
        self.placement_done = True

    # -- Interceptor protocol ----------------------------------------------------

    def wants(self, message: Message) -> bool:
        return self.strategy.intercepts and message.entry.prefetch

    def intercept(self, pe: PE, message: Message) -> _t.Generator:
        """Pre-processing: encapsulate as OOCTask, hand to the strategy."""
        if not self.placement_done:
            raise SchedulingError(
                "a [prefetch] message arrived before finalize_placement()")
        deps = message.entry.resolve_deps(message.target)
        task = OOCTask(next(self._task_ids), message, pe.id, deps)
        for block in task.blocks:
            block.add_demand(task.tid, task)
        if task.total_dep_bytes > self.tracker.budget:
            # no schedule can run this task: the machine is misconfigured
            raise ConfigError(
                f"task #{task.tid} needs {task.total_dep_bytes}B of HBM but "
                f"the budget is {self.tracker.budget}B; decompose further")
        self.tasks_intercepted += 1
        yield from self.strategy.submit(pe, task)

    def post_process(self, pe: PE, task: OOCTask) -> _t.Generator:
        """Post-processing: drop refcounts, let the strategy evict/wake."""
        for block in task.blocks:
            if block.state is not BlockState.INHBM:
                raise SchedulingError(
                    f"block {block.name!r} left HBM while task #{task.tid} "
                    "was running (refcount gating failed)")
        task.state = TaskState.DONE
        task.release_all()
        for block in task.blocks:
            block.drop_demand(task.tid)
        self.tasks_completed += 1
        self.change_epoch += 1
        yield from self.strategy.task_finished(pe, task)

    def retry(self, pe: PE) -> _t.Generator:
        """A :class:`~repro.runtime.interception.RetryFetch` arrived."""
        yield from self.strategy.retry_waiting(pe)

    # -- helpers used by strategies -------------------------------------------------

    def charge_queue_op(self, lane: str) -> _t.Generator:
        """Charge one lock-protected queue operation to ``lane``."""
        started = self.env.now
        yield self.env.timeout(QUEUE_LOCK_COST)
        if _probe.on_queue_op is not None:
            _probe.on_queue_op(lane, started, self.env.now)

    def pick_run_queue(self, origin: PE) -> PE:
        """Which run queue a ready task goes to.

        Per-PE by default (the paper's implementation); with the node-level
        option, the shortest run queue wins (the paper's planned
        improvement for load imbalance).
        """
        if not self.node_level_run_queue:
            return origin
        return min(self.pes,
                   key=lambda p: (len(p.run_queue), p.id))

    # -- in-flight move registry ------------------------------------------------------

    def begin_inflight(self, block: DataBlock) -> Event:
        if block.bid in self._inflight:
            raise SchedulingError(
                f"two concurrent moves of block {block.name!r}")
        event = self.env.event(name=f"inflight:{block.name}")
        self._inflight[block.bid] = event
        return event

    def end_inflight(self, block: DataBlock, event: Event) -> None:
        current = self._inflight.pop(block.bid, None)
        if current is not event:
            raise SchedulingError(
                f"in-flight bookkeeping mismatch for {block.name!r}")
        if _probe.on_inflight_end is not None:
            _probe.on_inflight_end(self.hbm.used)
        event.succeed(block)

    def inflight_event(self, block: DataBlock) -> Event:
        """Event to wait on when someone else is moving ``block``."""
        try:
            return self._inflight[block.bid]
        except KeyError:
            # The move finished between the caller's check and this call;
            # return an already-fired event.
            done = self.env.event(name=f"inflight:{block.name}:done")
            done.succeed(block)
            return done

    # -- sanitizer glue -----------------------------------------------------------

    def check_quiescent(self) -> int:
        """Run the sanitizer's end-of-run invariant sweep, if one is active.

        Returns the number of violations found (0 with no sanitizer).
        Drivers call this after their last reduction completes.
        """
        if self.sanitizer is None:
            return 0
        return self.sanitizer.check_quiescent(self)

    # -- stats -----------------------------------------------------------------------

    def summary(self) -> dict[str, _t.Any]:
        return {
            "strategy": self.strategy.name,
            "tasks_intercepted": self.tasks_intercepted,
            "tasks_readied": self.tasks_readied,
            "tasks_completed": self.tasks_completed,
            "fetches": self.strategy.fetches,
            "evictions": self.strategy.evictions,
            "bytes_fetched": self.strategy.bytes_fetched,
            "bytes_evicted": self.strategy.bytes_evicted,
            "hbm_peak_used": self.hbm.allocator.peak_used,
            "hbm_rejected_fits": self.tracker.rejected_fits,
        }
