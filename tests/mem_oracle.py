"""Reference checks the tests hold the memory layer to.

* :func:`check_registry_invariants` raises if a
  :class:`~repro.mem.registry.BlockRegistry`'s blocks disagree with the
  device allocators (capacity accounting, refcount sanity, state
  consistency).
* :func:`simulate_miss_rate` replays a cyclic sweep against an explicit
  direct-mapped tag array, the Monte-Carlo check of
  :meth:`~repro.mem.cache.DirectMappedCache.miss_rate`.
* :func:`sorted_victims` is the LRU victim selection as it was before the
  idle index: filter and sort every registered block.
  :func:`check_victim_heap` holds the idle index's lazy heap to that
  order's key (:func:`victim_key`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockStateError
from repro.mem.block import STALE_FACTOR, STALE_SLACK, BlockState, IdleIndex
from repro.mem.cache import DirectMappedCache
from repro.mem.registry import BlockRegistry


def check_registry_invariants(registry: BlockRegistry) -> None:
    """Raise if any cross-cutting invariant is violated.

    * a block's registry-visible residency never exceeds its device's
      allocator accounting;
    * resident blocks have live allocations matching their device;
    * no refcount is negative (enforced in DataBlock, re-checked here).
    """
    per_device: dict[str, int] = {}
    for block in registry:
        if block.refcount < 0:
            raise BlockStateError(f"negative refcount on {block!r}")
        if block.allocation is not None and block.allocation.live:
            if block.device is None:
                raise BlockStateError(
                    f"block {block.name!r} has live allocation but no device")
            if block.allocation.nbytes < block.nbytes:
                raise BlockStateError(
                    f"block {block.name!r} allocation smaller than block")
            per_device[block.device.name] = (
                per_device.get(block.device.name, 0) + block.allocation.nbytes)
        elif block.state is not BlockState.MOVING and block.device is not None:
            # A settled block must have live backing store.
            raise BlockStateError(
                f"block {block.name!r} is {block.state.value} on "
                f"{block.device.name} without a live allocation")
    for dev in registry.topology.devices:
        used = per_device.get(dev.name, 0)
        if used > dev.allocator.used:
            raise BlockStateError(
                f"registry accounts {used}B on {dev.name} but allocator "
                f"says only {dev.allocator.used}B are in use")


def simulate_miss_rate(cache: DirectMappedCache, working_set: int, *,
                       sweeps: int = 3, page_size: int = 4096,
                       seed: int = 0) -> float:
    """Miss rate of a cyclic sweep replayed against explicit set mapping.

    Pages are assigned random frame colours (the OS view); a cyclic
    sweep is replayed against a direct-mapped tag array at page
    granularity.  Coarser than line granularity but exhibits the same
    collision statistics, scaled.
    """
    pages = max(1, working_set // page_size)
    page_sets = max(1, cache.capacity // page_size)
    rng = np.random.default_rng(seed)
    colour = rng.integers(0, page_sets, size=pages)
    tags = np.full(page_sets, -1, dtype=np.int64)
    misses = 0
    for _ in range(max(1, sweeps)):
        for page in range(pages):
            s = colour[page]
            if tags[s] != page:
                misses += 1
                tags[s] = page
    return misses / (pages * max(1, sweeps))


def victim_key(block) -> tuple:
    """The LRU victim sort key: idle blocks least recently scheduled
    first, then demanded blocks farthest next use first, ``bid`` last."""
    if block.demand == 0:
        ts = block.last_scheduled_at
        return (0, -1.0 if ts is None else ts, block.bid)
    return (1, -block.next_use, block.bid)


def sorted_victims(registry: BlockRegistry, needed_bytes: int,
                   include_demanded: bool = True) -> list:
    """The victim selection before the idle index: filter and sort every
    registered block."""
    candidates = sorted(
        (b for b in registry
         if b.state is BlockState.INHBM and not b.in_use and not b.pinned
         and (include_demanded or b.demand == 0)),
        key=victim_key)
    victims, freed = [], 0
    for block in candidates:
        if freed >= needed_bytes:
            break
        victims.append(block)
        freed += block.nbytes
    return victims


def check_victim_heap(registry: BlockRegistry, index: IdleIndex) -> int:
    """Raise unless every idle block's entry is live in the heap under
    its current :func:`victim_key`, the heap is ordered and its stale
    entries are within the compaction bound; returns the stale count."""
    heap = index.heap
    in_heap = {id(entry) for entry in heap}
    for bid, entry in index.items():
        if entry != victim_key(registry.get(bid)):
            raise BlockStateError(f"block #{bid} indexed under {entry}")
        if id(entry) not in in_heap:
            raise BlockStateError(f"block #{bid} has no live heap entry")
    if any(heap[(i - 1) // 2] > heap[i] for i in range(1, len(heap))):
        raise BlockStateError("victim heap out of order")
    stale = len(heap) - len(index)
    if not 0 <= stale <= STALE_FACTOR * len(index) + STALE_SLACK:
        raise BlockStateError(
            f"{stale} stale entries over {len(index)} live ones")
    return stale
