"""Block registry: the runtime's metadata store over all ``CkIOHandle``s.

The paper stores and queries "metadata about the data block" at runtime
level; this registry is that store.
"""

from __future__ import annotations

import typing as _t

from repro.errors import BlockStateError
from repro.mem.block import BlockState, DataBlock
from repro.mem.topology import MemoryTopology

__all__ = ["BlockRegistry"]


class BlockRegistry:
    """All data blocks known to the runtime, with aggregate queries."""

    def __init__(self, topology: MemoryTopology):
        self.topology = topology
        self._blocks: dict[int, DataBlock] = {}
        # the devices' idle indices: the HBM node's, or none in cache mode
        self._idle_indices = [dev.idle_blocks for dev in topology.devices
                              if dev.idle_blocks is not None]

    # -- membership -----------------------------------------------------------

    def register(self, block: DataBlock) -> DataBlock:
        if block.bid in self._blocks:
            raise BlockStateError(f"block {block.name!r} registered twice")
        self._blocks[block.bid] = block
        return block

    def unregister(self, block: DataBlock) -> None:
        self._blocks.pop(block.bid, None)

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> _t.Iterator[DataBlock]:
        return iter(self._blocks.values())

    def __contains__(self, block: DataBlock) -> bool:
        return block.bid in self._blocks

    def get(self, bid: int) -> DataBlock | None:
        return self._blocks.get(bid)

    # -- aggregate queries -------------------------------------------------------

    def blocks_in_state(self, state: BlockState) -> list[DataBlock]:
        return [b for b in self._blocks.values() if b.state is state]

    def bytes_in_state(self, state: BlockState) -> int:
        return sum(b.nbytes for b in self._blocks.values() if b.state is state)

    def resident_bytes(self, device_name: str) -> int:
        return sum(b.nbytes for b in self._blocks.values()
                   if b.device is not None and b.device.name == device_name
                   and b.allocation is not None and b.allocation.live)

    def evictable_blocks(self) -> list[DataBlock]:
        """Blocks the paper would allow to be evicted: in HBM, refcount 0,
        not pinned.

        Read from the HBM device's idle index, so the cost follows the
        idle blocks rather than the registry.  ``pinned`` and membership
        are checked here: the index tracks only state and refcount.
        """
        blocks = self._blocks
        return [b for index in self._idle_indices for b in index.values()
                if not b.pinned and b.bid in blocks]

    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())
