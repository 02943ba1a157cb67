"""The NUMA view of a node: ``numa_alloc_onnode`` and friends.

The paper's data movement (§IV-C) is written against libnuma: "HBM is
exposed to the userspace as Memory node 1 and DDR4 is exposed as Memory
node 0."  :class:`MemoryTopology` reproduces that interface over simulated
devices, including the ``--preferred``-style spill placement used by the
Naive baseline.
"""

from __future__ import annotations

import typing as _t

from repro.errors import CapacityError, ConfigError
from repro.mem.allocator import Allocation
from repro.mem.block import BlockState, DataBlock
from repro.mem.device import DDR_NODE, HBM_NODE, MemoryDevice

__all__ = ["MemoryTopology"]


class MemoryTopology:
    """All memory devices of a node, addressable by NUMA node id."""

    def __init__(self, devices: _t.Iterable[MemoryDevice]):
        self._by_node: dict[int, MemoryDevice] = {}
        self._by_name: dict[str, MemoryDevice] = {}
        for dev in devices:
            if dev.numa_node in self._by_node:
                raise ConfigError(f"duplicate numa node {dev.numa_node}")
            if dev.name in self._by_name:
                raise ConfigError(f"duplicate device name {dev.name!r}")
            self._by_node[dev.numa_node] = dev
            self._by_name[dev.name] = dev
        if not self._by_node:
            raise ConfigError("a topology needs at least one device")

    # -- lookup ------------------------------------------------------------------

    def node(self, numa_node: int) -> MemoryDevice:
        try:
            return self._by_node[numa_node]
        except KeyError:
            raise ConfigError(f"unknown numa node {numa_node}") from None

    def device(self, name: str) -> MemoryDevice:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(f"unknown device {name!r}") from None

    @property
    def devices(self) -> tuple[MemoryDevice, ...]:
        return tuple(self._by_node[k] for k in sorted(self._by_node))

    @property
    def hbm(self) -> MemoryDevice:
        """The high-bandwidth device (node 1 by KNL convention)."""
        return self.node(HBM_NODE)

    @property
    def ddr(self) -> MemoryDevice:
        """The high-capacity device (node 0 by KNL convention)."""
        return self.node(DDR_NODE)

    def state_for(self, device: MemoryDevice) -> BlockState:
        """Paper block state corresponding to residency on ``device``."""
        return BlockState.INHBM if device.numa_node == HBM_NODE else BlockState.INDDR

    # -- libnuma analogs ------------------------------------------------------------

    def numa_alloc_onnode(self, nbytes: int, numa_node: int) -> Allocation:
        """``void* numa_alloc_onnode(size_t size, int node)`` analog."""
        return self.node(numa_node).allocate(nbytes)

    def numa_free(self, allocation: Allocation, numa_node: int) -> None:
        """``numa_free`` analog."""
        self.node(numa_node).free(allocation)

    # -- block placement -----------------------------------------------------------

    def place_block(self, block: DataBlock, device: MemoryDevice) -> None:
        """Bind a block's initial residency (no data movement, just space)."""
        if block.allocation is not None and block.allocation.live:
            raise ConfigError(f"block {block.name!r} is already placed")
        block.allocation = device.allocate(block.nbytes)
        block.settle(device, self.state_for(device))

    def place_preferred(self, block: DataBlock,
                        preferred: MemoryDevice,
                        fallback: MemoryDevice) -> MemoryDevice:
        """``numactl --preferred``-style placement: spill on exhaustion.

        This is the Naive baseline's allocation rule (§IV-B): fill HBM to
        capacity, put the overflow on DDR4.
        """
        if preferred.can_allocate(block.nbytes):
            self.place_block(block, preferred)
            return preferred
        self.place_block(block, fallback)
        return fallback

    def release_block(self, block: DataBlock) -> None:
        """Free a block's space (it keeps its last state for inspection)."""
        if block.allocation is None or not block.allocation.live:
            raise CapacityError(f"block {block.name!r} has no live allocation")
        assert block.device is not None
        block.device.free(block.allocation)
        block.allocation = None

    # -- accounting -------------------------------------------------------------

    def usage(self) -> dict[str, int]:
        """Bytes in use per device name."""
        return {dev.name: dev.used for dev in self.devices}

    def __repr__(self) -> str:
        devs = ", ".join(f"{n}:{d.name}" for n, d in sorted(self._by_node.items()))
        return f"<MemoryTopology {devs}>"
