"""Closed-form performance models: the simulator's analytic test oracle.

The DES should not be a black box: for simple, steady-state workloads its
results are predictable in closed form, and the test suite holds the two
accountable to each other (``tests/test_analysis_validation.py``).

The models mirror the simulator's assumptions:

* a device port's bandwidth is shared max-min fairly among its streams,
  each additionally capped by the per-core rate;
* a kernel's duration is ``max(compute floor, memory time)`` (time-domain
  roofline);
* a block move runs at ``min(per-thread copy rate, source read share,
  destination write share)``.
"""

from __future__ import annotations

import dataclasses

from repro.config import MachineConfig, knl_config

__all__ = [
    "bandwidth_share",
    "kernel_time",
    "move_time",
    "stencil_iteration_time",
    "stencil_speedup_bound",
    "AnalyticStencil",
]


def bandwidth_share(port_bandwidth: float, streams: int,
                    per_stream_cap: float = float("inf")) -> float:
    """Fair-share rate of one of ``streams`` equal streams on a port."""
    if streams <= 0:
        raise ValueError("streams must be >= 1")
    return min(port_bandwidth / streams, per_stream_cap)


def kernel_time(flops: float, traffic_bytes: float, *,
                core_flops: float, effective_bandwidth: float) -> float:
    """Time-domain roofline: max of compute floor and memory drain time."""
    compute = flops / core_flops if core_flops > 0 else 0.0
    memory = (traffic_bytes / effective_bandwidth
              if traffic_bytes > 0 else 0.0)
    return max(compute, memory)


def move_time(nbytes: float, *, src_read_share: float,
              dst_write_share: float, copy_cap: float,
              alloc_cost: float = 0.0, free_cost: float = 0.0,
              latency: float = 0.0) -> float:
    """Expected duration of one ``numa_alloc + memcpy + numa_free`` move."""
    rate = min(src_read_share, dst_write_share, copy_cap)
    return alloc_cost + latency + nbytes / rate + free_cost


@dataclasses.dataclass
class AnalyticStencil:
    """Steady-state model of one out-of-core Stencil3D iteration.

    Assumes ``n_chares >= pes`` (full waves), uniform blocks, and the
    placement split of the strategy under analysis.
    """

    machine: MachineConfig
    block_bytes: int
    n_chares: int
    flops_per_task: float
    sweep_traffic_factor: float = 8.0
    pes: int | None = None

    def __post_init__(self) -> None:
        if self.pes is None:
            self.pes = self.machine.cores

    @property
    def task_traffic(self) -> float:
        """Bytes one task streams (read + write sweeps)."""
        return 2.0 * self.block_bytes * self.sweep_traffic_factor

    def _device_share(self, device_name: str,
                      concurrent: int | None = None) -> float:
        dev = self.machine.device(device_name)
        streams = concurrent if concurrent is not None else self.pes
        # a mixed flow is bound by the weaker port
        port = min(dev.read_bandwidth, dev.write_bandwidth)
        return bandwidth_share(port, streams,
                               self.machine.core_mem_bandwidth)

    def task_time(self, device_name: str,
                  concurrent: int | None = None) -> float:
        """Kernel duration with the block resident on ``device_name``."""
        return kernel_time(
            self.flops_per_task, self.task_traffic,
            core_flops=self.machine.core_flops,
            effective_bandwidth=self._device_share(device_name, concurrent))

    def iteration_time(self, hbm_fraction: float) -> float:
        """One iteration with ``hbm_fraction`` of blocks resident in HBM.

        Static-placement model (Naive/DDR-only/HBM-only): each PE executes
        ``n_chares / pes`` tasks back to back, a blend of fast and slow.
        The *instantaneous concurrency* on each device is time-weighted —
        slow (DDR4) tasks occupy their PE for longer, so at any instant a
        disproportionate share of PEs sits in slow tasks, deepening the
        contention.  Solved as a fixed point.
        """
        if not 0.0 <= hbm_fraction <= 1.0:
            raise ValueError("hbm_fraction must be in [0, 1]")
        f = hbm_fraction
        tasks_per_pe = self.n_chares / self.pes
        if f == 0.0 or f == 1.0:
            device = "mcdram" if f == 1.0 else "ddr4"
            return tasks_per_pe * self.task_time(device, self.pes)
        slow_conc = (1.0 - f) * self.pes
        fast_conc = f * self.pes
        t_slow = t_fast = 0.0
        for _ in range(50):
            t_slow = self.task_time("ddr4", max(1, round(slow_conc)))
            t_fast = self.task_time("mcdram", max(1, round(fast_conc)))
            weight_slow = (1.0 - f) * t_slow
            weight_fast = f * t_fast
            total = weight_slow + weight_fast
            new_slow = self.pes * weight_slow / total
            if abs(new_slow - slow_conc) < 0.5:
                break
            slow_conc = new_slow
            fast_conc = self.pes - new_slow
        return tasks_per_pe * ((1.0 - f) * t_slow + f * t_fast)

    def movement_floor(self) -> float:
        """Per-iteration wire time to cycle every block through HBM.

        Fetches drain through the DDR4 read port, evictions through its
        write port; they overlap, so the floor is the slower of the two.
        """
        total = self.block_bytes * self.n_chares
        ddr = self.machine.device("ddr4")
        return max(total / ddr.read_bandwidth, total / ddr.write_bandwidth)

    def prefetch_iteration_floor(self) -> float:
        """Best-case out-of-core iteration: kernels from HBM, movement
        fully overlapped."""
        tasks_per_pe = self.n_chares / self.pes
        compute = tasks_per_pe * self.task_time("mcdram")
        return max(compute, self.movement_floor())


def stencil_iteration_time(machine: MachineConfig, block_bytes: int,
                           n_chares: int, flops_per_task: float,
                           hbm_fraction: float, *,
                           sweep_traffic_factor: float = 8.0) -> float:
    """Convenience wrapper over :class:`AnalyticStencil`."""
    model = AnalyticStencil(machine, block_bytes, n_chares, flops_per_task,
                            sweep_traffic_factor)
    return model.iteration_time(hbm_fraction)


def stencil_speedup_bound(machine: MachineConfig | None = None, *,
                          hbm_capacity_fraction: float = 0.5,
                          sweep_traffic_factor: float = 8.0,
                          flops_per_byte: float = 20.0 / 16.0) -> float:
    """Upper bound on Figure 8's multi-IO speedup over Naive.

    With Naive holding ``hbm_capacity_fraction`` of the grid in HBM and
    the prefetch runtime serving everything from HBM with perfect
    overlap, the bound is the ratio of the two blended iteration times.
    This is what the paper's "upto 2X" is an instance of.
    """
    cfg = machine if machine is not None else knl_config()
    block = 1 << 20  # arbitrary; ratio is block-size invariant
    flops = flops_per_byte * 2 * block * sweep_traffic_factor
    model = AnalyticStencil(cfg, block, cfg.cores * 8, flops,
                            sweep_traffic_factor)
    naive = model.iteration_time(hbm_capacity_fraction)
    best = model.prefetch_iteration_floor()
    return naive / best if best > 0 else float("inf")
