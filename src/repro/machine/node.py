"""A many-core node: cores + heterogeneous memory + kernel execution.

The kernel execution primitive implements the "roofline in time" model:
a task's duration is the *maximum* of its compute floor (flops at the
core's rate) and the completion of its memory traffic (fluid flows on the
devices hosting its data).  Because the flows share ports with every other
concurrent kernel, prefetch and eviction, bandwidth sensitivity — the
paper's central phenomenon — falls out of the model.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro import hooks as _probe
from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.machine.cpu import Core, build_cpu
from repro.mem.allocator import PagedAllocator
from repro.mem.device import MemoryDevice
from repro.mem.mover import DataMover
from repro.mem.registry import BlockRegistry
from repro.mem.topology import MemoryTopology
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork

__all__ = ["KernelResult", "MachineNode"]


@dataclasses.dataclass
class KernelResult:
    """Timing of one kernel execution."""

    core_id: int
    flops: float
    bytes_touched: float
    started_at: float
    finished_at: float
    compute_floor: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def memory_bound(self) -> bool:
        """True when memory time, not the compute floor, set the duration."""
        return self.duration > self.compute_floor * (1 + 1e-9)


class MachineNode:
    """A simulated node built from a :class:`MachineConfig`."""

    def __init__(self, env: Environment, config: MachineConfig, *,
                 allocator_cls: type = PagedAllocator,
                 allocator_kwargs: dict[str, _t.Any] | None = None,
                 fluid_solver: str | None = None):
        self.env = env
        self.config = config
        self.network = FluidNetwork(env, solver=fluid_solver)
        kwargs = allocator_kwargs or {}
        devices = []
        for dev_cfg in config.devices:
            allocator = allocator_cls(dev_cfg.capacity,
                                      name=f"{dev_cfg.name}.alloc", **kwargs)
            devices.append(MemoryDevice(
                name=dev_cfg.name, numa_node=dev_cfg.numa_node,
                capacity=dev_cfg.capacity,
                read_bandwidth=dev_cfg.read_bandwidth,
                write_bandwidth=dev_cfg.write_bandwidth,
                latency=dev_cfg.latency,
                allocator=allocator, network=self.network))
        self.topology = MemoryTopology(devices)
        self.registry = BlockRegistry(self.topology)
        self.mover = DataMover(env, self.topology,
                               per_thread_copy_bw=config.copy_bandwidth)
        self.cores, self.tiles = build_cpu(
            config.cores, config.tiles, config.smt,
            config.core_flops, config.core_mem_bandwidth)
        #: kernel executions completed, for sanity accounting
        self.kernels_executed = 0

    # -- lookups ------------------------------------------------------------

    @property
    def hbm(self) -> MemoryDevice:
        return self.topology.hbm

    @property
    def ddr(self) -> MemoryDevice:
        return self.topology.ddr

    def core(self, core_id: int) -> Core:
        if not 0 <= core_id < len(self.cores):
            raise ConfigError(f"no core {core_id} (have {len(self.cores)})")
        return self.cores[core_id]

    # -- kernel execution -----------------------------------------------------

    def run_kernel(self, core: Core | int, flops: float,
                   traffic: _t.Mapping[MemoryDevice, tuple[float, float]],
                   *, weight: float = 1.0) -> _t.Generator:
        """Execute a kernel on ``core``; yields inside a simulated process.

        ``traffic`` maps each device to ``(read_bytes, write_bytes)`` the
        kernel touches there.  The kernel finishes when both the compute
        floor has elapsed and every memory flow has drained.
        """
        if isinstance(core, int):
            core = self.core(core)
        if flops < 0:
            raise ConfigError("flops must be >= 0")
        started = self.env.now
        floor = flops / core.flops if flops > 0 else 0.0

        total_bytes = sum(r + w for r, w in traffic.values())
        waits = []
        if floor > 0:
            waits.append(self.env.timeout(floor))
        if total_bytes > 0:
            # The core's memory bandwidth cap is split across devices
            # proportionally to the bytes requested from each.
            for device, (read_bytes, write_bytes) in traffic.items():
                dev_bytes = read_bytes + write_bytes
                if dev_bytes <= 0:
                    continue
                cap = core.mem_bandwidth * (dev_bytes / total_bytes)
                flow = device.mixed_flow(read_bytes, write_bytes,
                                         weight=weight, max_rate=cap)
                waits.append(flow.done)
        if waits:
            yield self.env.all_of(waits)
        self.kernels_executed += 1
        return KernelResult(
            core_id=core.core_id, flops=flops, bytes_touched=total_bytes,
            started_at=started, finished_at=self.env.now,
            compute_floor=floor)

    def run_kernel_on_blocks(self, core: Core | int, flops: float,
                             reads: _t.Iterable, writes: _t.Iterable,
                             *, traffic_scale: float = 1.0,
                             weight: float = 1.0) -> _t.Generator:
        """Kernel traffic derived from data blocks' current residency.

        ``reads``/``writes`` are :class:`~repro.mem.block.DataBlock`s; each
        contributes its size (scaled) on whatever device currently hosts it.
        This is how the Naive baseline's penalty arises: blocks left on DDR4
        drag the kernel down to DDR4 bandwidth.
        """
        reads = tuple(reads)
        writes = tuple(writes)
        if _probe.on_kernel_access is not None:
            _probe.on_kernel_access(reads, writes)
        traffic: dict[MemoryDevice, list[float]] = {}
        for block in reads:
            if block.device is None:
                raise ConfigError(f"read block {block.name!r} is not resident")
            entry = traffic.setdefault(block.device, [0.0, 0.0])
            entry[0] += block.nbytes * traffic_scale
        for block in writes:
            if block.device is None:
                raise ConfigError(f"write block {block.name!r} is not resident")
            entry = traffic.setdefault(block.device, [0.0, 0.0])
            entry[1] += block.nbytes * traffic_scale
        result = yield from self.run_kernel(
            core, flops,
            {dev: (r, w) for dev, (r, w) in traffic.items()},
            weight=weight)
        return result

    def __repr__(self) -> str:
        return (f"<MachineNode {self.config.name} cores={len(self.cores)} "
                f"devices={[d.name for d in self.topology.devices]}>")
