"""Wire a registry to a built runtime stack via polled gauges.

Counters and histograms are folded from the run's recorder log (see
:mod:`repro.metrics.session`); everything that can be *read* instead —
queue depths, tier occupancy, PE time accounting, manager task counts —
is registered here as a polled gauge, sampled only when the flight
recorder (or an exporter) takes a snapshot, at zero steady-state cost.
"""

from __future__ import annotations

import typing as _t
from operator import attrgetter

from repro.metrics.registry import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import BuiltRuntime

__all__ = ["bind_built_runtime"]


def bind_built_runtime(registry: MetricsRegistry,
                       built: "BuiltRuntime") -> MetricsRegistry:
    """Register polled gauges over ``built``'s devices, PEs and manager.

    Each gauge reads its object through a reader shared by its family
    (``len`` or one ``attrgetter``), so a run's hundreds of gauges add no
    closure each for the cyclic collector to walk.
    """
    manager = built.manager
    mover = built.machine.mover

    # -- memory tiers ------------------------------------------------------
    used, available, peak_used, alloc_calls, failed_allocs, bytes_read, \
        bytes_written = map(attrgetter, (
            "used", "available", "peak_used", "alloc_calls", "failed_allocs",
            "bytes_read", "bytes_written"))
    for device in (manager.hbm, manager.ddr):
        alloc = device.allocator
        tier = device.name
        registry.observe("repro_mem_used_bytes", used,
                         "bytes resident on the tier", of=device, tier=tier)
        registry.observe("repro_mem_free_bytes", available,
                         "bytes free on the tier", of=device, tier=tier)
        registry.observe("repro_mem_high_water_bytes", peak_used,
                         "allocator high-water mark", of=alloc, tier=tier)
        registry.observe("repro_mem_alloc_calls", alloc_calls,
                         "allocator allocate() calls", of=alloc, tier=tier)
        registry.observe("repro_mem_alloc_failures", failed_allocs,
                         "failed allocations on the tier", of=alloc,
                         tier=tier)
        registry.observe("repro_mem_read_bytes", bytes_read,
                         "bytes read off the tier", of=device, tier=tier)
        registry.observe("repro_mem_written_bytes", bytes_written,
                         "bytes written to the tier", of=device, tier=tier)

    # -- HBM tracker -------------------------------------------------------
    tracker = manager.tracker
    registry.observe("repro_hbm_reserved_bytes", lambda: tracker.reserved,
                     "in-flight fetch reservations")
    registry.observe("repro_hbm_budget_bytes", lambda: tracker.budget,
                     "HBM capacity available to the OOC scheduler")
    registry.observe("repro_hbm_rejected_fits", lambda: tracker.rejected_fits,
                     "can_fit probes answered no")

    # -- data mover --------------------------------------------------------
    registry.observe("repro_mover_moves_completed",
                     lambda: mover.moves_completed, "completed block moves")
    registry.observe("repro_mover_bytes_moved", lambda: mover.bytes_moved,
                     "total bytes moved between tiers")

    # -- manager task counts ----------------------------------------------
    registry.observe("repro_tasks_intercepted",
                     lambda: manager.tasks_intercepted,
                     "[prefetch] messages intercepted")
    registry.observe("repro_tasks_readied", lambda: manager.tasks_readied,
                     "tasks handed to run queues with data resident")
    registry.observe("repro_tasks_completed", lambda: manager.tasks_completed,
                     "tasks that finished post-processing")

    # -- PEs: queue depths + busy/idle/blocked accounting ------------------
    busy, blocked, idle = (lambda pe: pe.busy_time,
                           lambda pe: pe.overhead_time,
                           lambda pe: pe.idle_time)
    for pe in built.runtime.pes:
        label = str(pe.id)
        registry.observe("repro_pe_wait_depth", len,
                         "tasks parked awaiting prefetch", of=pe.wait_queue,
                         pe=label)
        registry.observe("repro_pe_run_depth", len,
                         "converse run-queue depth", of=pe.run_queue,
                         pe=label)
        registry.observe("repro_pe_busy_seconds", busy,
                         "time executing entry methods", of=pe, pe=label)
        registry.observe("repro_pe_blocked_seconds", blocked,
                         "time blocked in pre/post-processing", of=pe,
                         pe=label)
        registry.observe("repro_pe_idle_seconds", idle,
                         "scheduler time neither busy nor blocked", of=pe,
                         pe=label)
    return registry
