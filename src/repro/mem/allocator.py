"""Allocators for simulated memory devices.

The paper moves data with ``numa_alloc_onnode`` + ``memcpy`` + ``numa_free``
and notes (§IV-C) that "the creating of space in destination memory could be
avoided if we maintain a memory pool in each memory type. We plan to perform
this optimization in the future".  We implement both ends of that trade-off:

* :class:`FreeListAllocator` — first-fit with coalescing; every allocation
  pays ``alloc_cost`` seconds (mmap/page-table work of ``numa_alloc_onnode``);
* :class:`PoolAllocator` — size-class pooling; reuse is (nearly) free, which
  is exactly the paper's proposed optimisation and an ablation bench target;
* :class:`BumpAllocator` — trivial arena for tests and static placements.

Allocators only track *space*; the time cost is charged by the
:class:`~repro.mem.mover.DataMover`, which asks ``alloc_cost(nbytes)``.
"""

from __future__ import annotations

import typing as _t
from bisect import insort
from itertools import count

from repro import hooks as _probe
from repro.errors import AllocationError, CapacityError

__all__ = ["Allocation", "Allocator", "BumpAllocator", "FreeListAllocator",
           "PagedAllocator", "PoolAllocator"]

#: Default per-call allocation overhead, seconds. Calibrated to the scale of
#: Linux mmap+first-touch costs for multi-GB buffers on KNL-class hardware.
DEFAULT_ALLOC_BASE = 5e-6
#: Additional allocation overhead per byte (page-table population).
DEFAULT_ALLOC_PER_BYTE = 2.5e-12  # ~2.5 us per GB... dominated by base for small
#: Default per-call free overhead, seconds.
DEFAULT_FREE_BASE = 2e-6

_alloc_ids = count()


class Allocation:
    """A live reservation of ``nbytes`` at ``offset`` on a device."""

    __slots__ = ("aid", "offset", "nbytes", "allocator", "live")

    def __init__(self, offset: int, nbytes: int, allocator: "Allocator"):
        self.aid = next(_alloc_ids)
        self.offset = offset
        self.nbytes = nbytes
        self.allocator = allocator
        self.live = True

    def __repr__(self) -> str:
        status = "live" if self.live else "freed"
        return f"<Allocation #{self.aid} off={self.offset} {self.nbytes}B {status}>"


class Allocator:
    """Interface + shared accounting for device allocators."""

    def __init__(self, capacity: int, *,
                 alloc_base: float = DEFAULT_ALLOC_BASE,
                 alloc_per_byte: float = DEFAULT_ALLOC_PER_BYTE,
                 free_base: float = DEFAULT_FREE_BASE,
                 name: str = "allocator"):
        if capacity <= 0:
            raise AllocationError(f"capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self.name = name
        self.alloc_base = alloc_base
        self.alloc_per_byte = alloc_per_byte
        self.free_base = free_base
        self.used = 0
        self.peak_used = 0
        self.alloc_calls = 0
        self.free_calls = 0
        self.failed_allocs = 0

    # -- interface ------------------------------------------------------------

    @property
    def available(self) -> int:
        return self.capacity - self.used

    def can_allocate(self, nbytes: int) -> bool:
        return nbytes <= self.available

    def allocate(self, nbytes: int) -> Allocation:
        raise NotImplementedError

    def free(self, allocation: Allocation) -> None:
        raise NotImplementedError

    # -- time cost model ----------------------------------------------------

    def alloc_cost(self, nbytes: int) -> float:
        """Simulated seconds an allocation of ``nbytes`` costs."""
        return self.alloc_base + self.alloc_per_byte * nbytes

    def free_cost(self, nbytes: int) -> float:
        """Simulated seconds a free costs."""
        return self.free_base

    # -- shared bookkeeping ------------------------------------------------

    def _take(self, nbytes: int) -> None:
        if nbytes > self.available:
            self.failed_allocs += 1
            if _probe.on_alloc_failure is not None:
                _probe.on_alloc_failure(self, nbytes)
            raise CapacityError(
                f"{self.name}: cannot allocate {nbytes}B "
                f"({self.available}B of {self.capacity}B available)",
                requested=nbytes, available=self.available)
        self.used += nbytes
        self.peak_used = max(self.peak_used, self.used)
        self.alloc_calls += 1
        if _probe.on_alloc is not None:
            _probe.on_alloc(self, nbytes)

    def _give_back(self, allocation: Allocation) -> None:
        if _probe.on_free is not None:
            _probe.on_free(self, allocation)
        if not allocation.live:
            raise AllocationError(f"double free of {allocation!r}")
        allocation.live = False
        self.used -= allocation.nbytes
        self.free_calls += 1


class BumpAllocator(Allocator):
    """Monotonic arena: frees return capacity but never reuse offsets.

    Suitable for static placements (the Naive/DDR4-only/HBM-only baselines)
    where nothing is ever moved.
    """

    def __init__(self, capacity: int, **kwargs: _t.Any):
        super().__init__(capacity, **kwargs)
        self._cursor = 0

    def allocate(self, nbytes: int) -> Allocation:
        if nbytes <= 0:
            raise AllocationError("allocation size must be > 0")
        self._take(nbytes)
        alloc = Allocation(self._cursor, nbytes, self)
        self._cursor += nbytes
        return alloc

    def free(self, allocation: Allocation) -> None:
        self._give_back(allocation)


class PagedAllocator(Allocator):
    """Page-backed allocation: capacity is the only constraint.

    ``numa_alloc_onnode`` hands out *virtual* ranges backed by any free
    physical pages, so a multi-GB allocation never fails for lack of
    contiguity — only for lack of capacity.  This is the default device
    allocator; :class:`FreeListAllocator` models a contiguous arena for
    the fragmentation ablation.
    """

    def __init__(self, capacity: int, **kwargs: _t.Any):
        super().__init__(capacity, **kwargs)
        self._cursor = 0  # virtual addresses are abundant; never reused

    def allocate(self, nbytes: int) -> Allocation:
        if nbytes <= 0:
            raise AllocationError("allocation size must be > 0")
        self._take(nbytes)
        alloc = Allocation(self._cursor, nbytes, self)
        self._cursor += nbytes
        return alloc

    def free(self, allocation: Allocation) -> None:
        self._give_back(allocation)


class FreeListAllocator(Allocator):
    """First-fit free-list with coalescing of adjacent free ranges.

    This is the ``numa_alloc_onnode``/``numa_free`` analog: every call pays
    the full allocation cost.
    """

    def __init__(self, capacity: int, **kwargs: _t.Any):
        super().__init__(capacity, **kwargs)
        # Sorted list of (offset, length) free ranges.
        self._free: list[tuple[int, int]] = [(0, self.capacity)]

    def allocate(self, nbytes: int) -> Allocation:
        if nbytes <= 0:
            raise AllocationError("allocation size must be > 0")
        for i, (off, length) in enumerate(self._free):
            if length >= nbytes:
                self._take(nbytes)
                if length == nbytes:
                    del self._free[i]
                else:
                    self._free[i] = (off + nbytes, length - nbytes)
                return Allocation(off, nbytes, self)
        self.failed_allocs += 1
        if _probe.on_alloc_failure is not None:
            _probe.on_alloc_failure(self, nbytes)
        raise CapacityError(
            f"{self.name}: no free range of {nbytes}B "
            f"(free total {self.available}B, fragmented)",
            requested=nbytes, available=self.available)

    def free(self, allocation: Allocation) -> None:
        self._give_back(allocation)
        insort(self._free, (allocation.offset, allocation.nbytes))
        self._coalesce()

    def _coalesce(self) -> None:
        merged: list[tuple[int, int]] = []
        for off, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                prev_off, prev_len = merged[-1]
                merged[-1] = (prev_off, prev_len + length)
            else:
                merged.append((off, length))
        self._free = merged

    @property
    def fragment_count(self) -> int:
        """Number of disjoint free ranges (fragmentation metric)."""
        return len(self._free)

    @property
    def largest_free_range(self) -> int:
        return max((length for _, length in self._free), default=0)


class PoolAllocator(Allocator):
    """Size-class pooling: frees keep the space; same-size allocs are cheap.

    Models the paper's proposed optimisation.  A freed chunk goes back to its
    size-class pool; a later allocation of the same class reuses it paying
    only ``pool_hit_cost``.  Misses fall through to an inner free-list.
    """

    def __init__(self, capacity: int, *, pool_hit_cost: float = 5e-8,
                 **kwargs: _t.Any):
        super().__init__(capacity, **kwargs)
        self.pool_hit_cost = pool_hit_cost
        self._inner = FreeListAllocator(capacity, name=f"{self.name}.inner")
        self._pools: dict[int, list[Allocation]] = {}
        self.pool_hits = 0
        self.pool_misses = 0
        self._last_was_hit = False

    @staticmethod
    def size_class(nbytes: int) -> int:
        """Round up to the next power-of-two size class (min 4 KiB)."""
        cls = 4096
        while cls < nbytes:
            cls <<= 1
        return cls

    def allocate(self, nbytes: int) -> Allocation:
        if nbytes <= 0:
            raise AllocationError("allocation size must be > 0")
        cls = self.size_class(nbytes)
        pool = self._pools.get(cls)
        if pool:
            inner = pool.pop()
            self.pool_hits += 1
            self._last_was_hit = True
            self._take(cls)
            alloc = Allocation(inner.offset, cls, self)
            # Stash the inner allocation so free() can return it to the pool.
            alloc_inner_map[alloc.aid] = inner
            return alloc
        self.pool_misses += 1
        self._last_was_hit = False
        try:
            inner = self._inner.allocate(cls)
        except CapacityError:
            self.failed_allocs += 1
            raise
        self._take(cls)
        alloc = Allocation(inner.offset, cls, self)
        alloc_inner_map[alloc.aid] = inner
        return alloc

    def free(self, allocation: Allocation) -> None:
        self._give_back(allocation)
        inner = alloc_inner_map.pop(allocation.aid)
        self._pools.setdefault(inner.nbytes, []).append(inner)

    def alloc_cost(self, nbytes: int) -> float:
        # Optimistic: ask whether the *next* allocation would hit the pool.
        cls = self.size_class(nbytes)
        if self._pools.get(cls):
            return self.pool_hit_cost
        return super().alloc_cost(cls)

    def free_cost(self, nbytes: int) -> float:
        return self.pool_hit_cost  # just a list push

    def drain_pools(self) -> int:
        """Release pooled chunks back to the inner allocator; returns bytes."""
        drained = 0
        for pool in self._pools.values():
            for inner in pool:
                self._inner.free(inner)
                drained += inner.nbytes
        self._pools.clear()
        return drained


#: PoolAllocator bookkeeping: maps outer allocation ids to inner free-list
#: allocations.  Module-level so Allocation stays slot-only and cheap.
alloc_inner_map: dict[int, Allocation] = {}
