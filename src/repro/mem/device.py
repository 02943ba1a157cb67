"""Memory devices: capacity + bandwidth ports into the fluid network.

A device owns

* an :class:`~repro.mem.allocator.Allocator` for its capacity, and
* two fluid links, ``<name>.read`` and ``<name>.write``, whose capacities
  are the device's peak read/write bandwidths.

Traffic against the device is expressed as flows on those links, so any mix
of kernels, prefetches and evictions contends for bandwidth under max-min
fairness automatically.
"""

from __future__ import annotations

import math
import typing as _t

from repro.errors import ConfigError
from repro.mem.block import IdleIndex
from repro.sim.fluid import Flow, FluidNetwork, Link
from repro.units import format_bandwidth, format_size

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.mem.allocator import Allocation, Allocator

__all__ = ["MemoryDevice"]

#: Conventional KNL numa node numbering (paper §IV-C).
DDR_NODE = 0
HBM_NODE = 1


class MemoryDevice:
    """One NUMA memory node (e.g. MCDRAM or DDR4)."""

    def __init__(self, name: str, numa_node: int, capacity: int,
                 read_bandwidth: float, write_bandwidth: float,
                 latency: float, allocator: "Allocator",
                 network: FluidNetwork):
        if capacity <= 0:
            raise ConfigError(f"device {name!r}: capacity must be > 0")
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ConfigError(f"device {name!r}: bandwidths must be > 0")
        if latency < 0:
            raise ConfigError(f"device {name!r}: latency must be >= 0")
        self.name = name
        self.numa_node = numa_node
        self.capacity = int(capacity)
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth)
        #: access latency charged once per transfer, seconds
        self.latency = float(latency)
        self.allocator = allocator
        self.network = network
        self.read_link: Link = network.add_link(f"{name}.read", read_bandwidth)
        self.write_link: Link = network.add_link(f"{name}.write", write_bandwidth)
        #: cumulative traffic counters (bytes)
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        #: the idle index: the bids of the blocks settled here in INHBM
        #: with refcount 0 — the eviction candidates — with their victim
        #: heap.  Ids, not blocks: a block points at its device, so
        #: holding blocks here would make every idle block a reference
        #: cycle.  DataBlock's transitions maintain it; only the HBM node
        #: keeps one.
        self.idle_blocks: IdleIndex | None = (
            IdleIndex() if numa_node == HBM_NODE else None)

    # -- capacity ---------------------------------------------------------------

    @property
    def used(self) -> int:
        return self.allocator.used

    @property
    def available(self) -> int:
        return self.allocator.available

    def can_allocate(self, nbytes: int) -> bool:
        return self.allocator.can_allocate(nbytes)

    def allocate(self, nbytes: int) -> "Allocation":
        return self.allocator.allocate(nbytes)

    def free(self, allocation: "Allocation") -> None:
        self.allocator.free(allocation)

    # -- traffic ------------------------------------------------------------------

    def mixed_flow(self, read_bytes: float, write_bytes: float, *,
                   max_rate: float = math.inf) -> Flow:
        """A combined read+write stream (e.g. a kernel's traffic).

        Modelled as a single flow crossing both ports, sized by the total
        bytes; this keeps one completion event per kernel while loading both
        directions.  For asymmetric mixes the dominant direction dictates the
        link set.
        """
        total = read_bytes + write_bytes
        links: list[Link] = []
        if read_bytes > 0:
            links.append(self.read_link)
        if write_bytes > 0:
            links.append(self.write_link)
        self.bytes_read += read_bytes
        self.bytes_written += write_bytes
        return self.network.start_flow(total, links, max_rate=max_rate)

    def __repr__(self) -> str:
        return (f"<MemoryDevice {self.name} node={self.numa_node} "
                f"{format_size(self.used)}/{format_size(self.capacity)} "
                f"r={format_bandwidth(self.read_bandwidth)} "
                f"w={format_bandwidth(self.write_bandwidth)}>")
