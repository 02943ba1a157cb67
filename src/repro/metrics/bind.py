"""Wire a registry to a built runtime stack via polled gauges.

Counters and histograms are folded from the run's recorder log (see
:mod:`repro.metrics.session`); everything that can be *read* instead —
queue depths, tier occupancy, PE time accounting, manager task counts —
is registered here as a polled gauge, sampled only when the flight
recorder (or an exporter) takes a snapshot, at zero steady-state cost.
"""

from __future__ import annotations

import typing as _t

from repro.metrics.registry import MetricsRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import BuiltRuntime

__all__ = ["bind_built_runtime"]


def bind_built_runtime(registry: MetricsRegistry,
                       built: "BuiltRuntime") -> MetricsRegistry:
    """Register polled gauges over ``built``'s devices, PEs and manager."""
    manager = built.manager
    mover = built.machine.mover

    # -- memory tiers ------------------------------------------------------
    for device in (manager.hbm, manager.ddr):
        alloc = device.allocator
        registry.observe("repro_mem_used_bytes", lambda d=device: d.used,
                         "bytes resident on the tier", tier=device.name)
        registry.observe("repro_mem_free_bytes", lambda d=device: d.available,
                         "bytes free on the tier", tier=device.name)
        registry.observe("repro_mem_high_water_bytes",
                         lambda a=alloc: a.peak_used,
                         "allocator high-water mark", tier=device.name)
        registry.observe("repro_mem_alloc_calls",
                         lambda a=alloc: a.alloc_calls,
                         "allocator allocate() calls", tier=device.name)
        registry.observe("repro_mem_alloc_failures",
                         lambda a=alloc: a.failed_allocs,
                         "failed allocations on the tier", tier=device.name)
        registry.observe("repro_mem_read_bytes",
                         lambda d=device: d.bytes_read,
                         "bytes read off the tier", tier=device.name)
        registry.observe("repro_mem_written_bytes",
                         lambda d=device: d.bytes_written,
                         "bytes written to the tier", tier=device.name)

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
    for pe in built.runtime.pes:
        label = str(pe.id)
        registry.observe("repro_pe_wait_depth",
                         lambda p=pe: len(p.wait_queue),
                         "tasks parked awaiting prefetch", pe=label)
        registry.observe("repro_pe_run_depth",
                         lambda p=pe: len(p.run_queue),
                         "converse run-queue depth", pe=label)
        registry.observe("repro_pe_busy_seconds", lambda p=pe: p.busy_time,
                         "time executing entry methods", pe=label)
        registry.observe("repro_pe_blocked_seconds",
                         lambda p=pe: p.overhead_time,
                         "time blocked in pre/post-processing", pe=label)
        registry.observe("repro_pe_idle_seconds", lambda p=pe: p.idle_time,
                         "scheduler time neither busy nor blocked", pe=label)
    return registry
