"""A many-core node: per-core rates + heterogeneous memory + kernel execution.

The kernel execution primitive implements the "roofline in time" model:
a task's duration is the *maximum* of its compute floor (flops at the
core's rate) and the completion of its memory traffic (fluid flows on the
devices hosting its data).  Because the flows share ports with every other
concurrent kernel, prefetch and eviction, bandwidth sensitivity — the
paper's central phenomenon — falls out of the model.

All cores are identical, so a core is just its two rates: the FLOP rate
and the memory bandwidth one core can draw by itself.  KNL's 34-tile,
4-way-SMT layout (§III-B) is not modelled; no result depends on it.
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.mem.allocator import PagedAllocator
from repro.mem.cache import DirectMappedCache
from repro.mem.device import MemoryDevice
from repro.mem.mover import DataMover
from repro.mem.registry import BlockRegistry
from repro.mem.topology import MemoryTopology
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork

__all__ = ["MachineNode"]


class MachineNode:
    """A simulated node built from a :class:`MachineConfig`."""

    def __init__(self, env: Environment, config: MachineConfig, *,
                 allocator_cls: type = PagedAllocator):
        self.env = env
        self.config = config
        self.network = FluidNetwork(env)
        devices = []
        for dev_cfg in config.devices:
            allocator = allocator_cls(dev_cfg.capacity,
                                      name=f"{dev_cfg.name}.alloc")
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
        #: peak FLOP/s of one core
        self.core_flops = config.core_flops
        #: memory bandwidth one core can draw by itself, B/s
        self.core_mem_bandwidth = config.core_mem_bandwidth
        #: MCDRAM cache model in KNL cache/hybrid mode, else None
        self.mcdram_cache: DirectMappedCache | None = None
        #: kernel executions completed, for sanity accounting
        self.kernels_executed = 0

    # -- lookups ------------------------------------------------------------

    @property
    def hbm(self) -> MemoryDevice:
        return self.topology.hbm

    @property
    def ddr(self) -> MemoryDevice:
        return self.topology.ddr

    # -- kernel execution -----------------------------------------------------

    def run_kernel(self, flops: float,
                   traffic: _t.Mapping[MemoryDevice, tuple[float, float]],
                   ) -> _t.Generator:
        """Execute a kernel on one core; yields inside a simulated process.

        ``traffic`` maps each device to ``(read_bytes, write_bytes)`` the
        kernel touches there.  The kernel finishes when both the compute
        floor has elapsed and every memory flow has drained; its duration
        in seconds is the return value.
        """
        if flops < 0:
            raise ConfigError("flops must be >= 0")
        started = self.env.now
        floor = flops / self.core_flops if flops > 0 else 0.0

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
                cap = self.core_mem_bandwidth * (dev_bytes / total_bytes)
                flow = device.mixed_flow(read_bytes, write_bytes,
                                         max_rate=cap)
                waits.append(flow.done)
        if waits:
            yield self.env.all_of(waits)
        self.kernels_executed += 1
        return self.env.now - started

    def run_kernel_on_blocks(self, flops: float,
                             reads: _t.Iterable, writes: _t.Iterable,
                             *, traffic_scale: float = 1.0) -> _t.Generator:
        """Kernel traffic derived from data blocks' current residency.

        ``reads``/``writes`` are :class:`~repro.mem.block.DataBlock`s; each
        contributes its size (scaled) on whatever device currently hosts it.
        This is how the Naive baseline's penalty arises: blocks left on DDR4
        drag the kernel down to DDR4 bandwidth.  Returns the duration.
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
        return (yield from self.run_kernel(
            flops, {dev: (r, w) for dev, (r, w) in traffic.items()}))

    def __repr__(self) -> str:
        return (f"<MachineNode {self.config.name} cores={self.config.cores} "
                f"devices={[d.name for d in self.topology.devices]}>")
