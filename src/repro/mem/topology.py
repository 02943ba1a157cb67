"""The NUMA view of a node: devices by node id, and block placement.

The paper's data movement (§IV-C) is written against libnuma: "HBM is
exposed to the userspace as Memory node 1 and DDR4 is exposed as Memory
node 0."  :class:`MemoryTopology` reproduces that numbering over simulated
devices and binds (and releases) each block's initial residency.
"""

from __future__ import annotations

import typing as _t

from repro.errors import CapacityError, ConfigError
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

    # -- block placement -----------------------------------------------------------

    def place_block(self, block: DataBlock, device: MemoryDevice) -> None:
        """Bind a block's initial residency (no data movement, just space).

        A full ``device`` raises :class:`CapacityError` naming it.
        """
        if block.allocation is not None and block.allocation.live:
            raise ConfigError(f"block {block.name!r} is already placed")
        try:
            block.allocation = device.allocate(block.nbytes)
        except CapacityError as exc:
            raise CapacityError(str(exc), available=exc.available,
                                device=device.name) from None
        block.settle(device, self.state_for(device))

    def release_block(self, block: DataBlock) -> None:
        """Free a block's space (it keeps its last state for inspection)."""
        if block.allocation is None or not block.allocation.live:
            raise CapacityError(f"block {block.name!r} has no live allocation")
        assert block.device is not None
        block.device.free(block.allocation)
        block.allocation = None

    def __repr__(self) -> str:
        devs = ", ".join(f"{n}:{d.name}" for n, d in sorted(self._by_node.items()))
        return f"<MemoryTopology {devs}>"
