"""Heterogeneous-memory substrate.

Models the two memory pools of a KNL-class node (high-bandwidth MCDRAM and
high-capacity DDR4) plus everything the paper's runtime needs around them:

* :class:`~repro.mem.block.DataBlock` — the ``CkIOHandle`` analog, a data
  block with an access intent, placement state (``INHBM``/``INDDR``), and a
  reference count used to gate eviction;
* :class:`~repro.mem.device.MemoryDevice` — capacity + bandwidth ports;
* :class:`~repro.mem.topology.MemoryTopology` — the NUMA view (devices by
  node id, block placement);
* :class:`~repro.mem.mover.DataMover` — the paper's §IV-C three-step move
  (allocate at destination, ``memcpy``, free source);
* :class:`~repro.mem.cache.DirectMappedCache` — the KNL *cache mode* model.
"""

from repro.mem.block import AccessIntent, BlockState, DataBlock
from repro.mem.device import MemoryDevice
from repro.mem.allocator import (
    Allocation,
    Allocator,
    FreeListAllocator,
    PagedAllocator,
    PoolAllocator,
)
from repro.mem.topology import MemoryTopology
from repro.mem.mover import DataMover
from repro.mem.registry import BlockRegistry
from repro.mem.cache import DirectMappedCache

__all__ = [
    "AccessIntent", "BlockState", "DataBlock",
    "MemoryDevice",
    "Allocation", "Allocator", "FreeListAllocator",
    "PagedAllocator", "PoolAllocator",
    "MemoryTopology",
    "DataMover",
    "BlockRegistry",
    "DirectMappedCache",
]
