"""Block registry: the runtime's metadata store over all ``CkIOHandle``s.

The paper stores and queries "metadata about the data block" at runtime
level; this registry is that store.
"""

from __future__ import annotations

import typing as _t
from itertools import count

from repro.errors import BlockStateError
from repro.mem.block import DataBlock, IdleIndex
from repro.mem.topology import MemoryTopology

__all__ = ["BlockRegistry"]


class BlockRegistry:
    """All data blocks known to the runtime, with aggregate queries."""

    def __init__(self, topology: MemoryTopology):
        self.topology = topology
        self._blocks: dict[int, DataBlock] = {}
        #: this run's block numbers
        self._block_ids = count()
        #: the HBM node's idle index, or None in cache mode (numa node
        #: ids are unique, so at most one device keeps one)
        self.idle_index: IdleIndex | None = next(
            (dev.idle_blocks for dev in topology.devices
             if dev.idle_blocks is not None), None)

    # -- membership -----------------------------------------------------------

    def declare(self, name: str, nbytes: int, *,
                payload: _t.Any = None) -> DataBlock:
        """A new block, numbered within this run and registered."""
        return self.register(DataBlock(name, nbytes, bid=next(self._block_ids),
                                       payload=payload))

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

    def evictable_blocks(self) -> list[DataBlock]:
        """Blocks the paper would allow to be evicted: in HBM, refcount 0,
        not pinned.

        Read from the HBM device's idle index, so the cost follows the
        idle blocks rather than the registry.  ``pinned`` and membership
        are checked here: the index tracks only state and refcount.
        """
        index = self.idle_index
        if index is None:
            return []
        get = self._blocks.get
        return [b for bid in index
                if (b := get(bid)) is not None and not b.pinned]

    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self._blocks.values())
