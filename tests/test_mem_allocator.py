"""Unit + property tests for the device allocators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, CapacityError
from repro.mem.allocator import FreeListAllocator, PagedAllocator, PoolAllocator

ALLOCATOR_CLASSES = [FreeListAllocator, PagedAllocator, PoolAllocator]


@pytest.mark.parametrize("cls", ALLOCATOR_CLASSES)
class TestAllocatorContract:
    """Behaviour every allocator must share."""

    def test_allocate_tracks_usage(self, cls):
        alloc = cls(1 << 20)
        a = alloc.allocate(8192)
        assert alloc.used >= 8192
        alloc.free(a)
        assert alloc.used == 0

    def test_zero_size_rejected(self, cls):
        with pytest.raises(AllocationError):
            cls(1000).allocate(0)

    def test_over_capacity_rejected(self, cls):
        alloc = cls(1 << 20)
        with pytest.raises(CapacityError):
            alloc.allocate(1 << 24)
        assert alloc.failed_allocs >= 1

    def test_double_free_rejected(self, cls):
        alloc = cls(4096)
        a = alloc.allocate(64)
        alloc.free(a)
        with pytest.raises(AllocationError):
            alloc.free(a)

    def test_peak_tracking(self, cls):
        alloc = cls(10000)
        a = alloc.allocate(500)
        b = alloc.allocate(500)
        alloc.free(a)
        alloc.free(b)
        assert alloc.peak_used >= 1000

    def test_costs_are_positive(self, cls):
        alloc = cls(4096)
        assert alloc.alloc_cost(1024) > 0
        assert alloc.free_cost(1024) >= 0

    def test_bad_capacity_rejected(self, cls):
        with pytest.raises(AllocationError):
            cls(0)


class TestFreeList:
    def test_reuses_freed_space(self):
        alloc = FreeListAllocator(1000)
        a = alloc.allocate(1000)
        alloc.free(a)
        b = alloc.allocate(1000)  # would fail without reuse
        assert b.offset == 0

    def test_coalescing_adjacent_ranges(self):
        alloc = FreeListAllocator(300)
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        c = alloc.allocate(100)
        alloc.free(a)
        alloc.free(c)
        with pytest.raises(CapacityError):  # two 100B holes, no 200B range
            alloc.allocate(200)
        alloc.free(b)  # bridges a and c back into one range
        assert alloc.allocate(300).offset == 0

    def test_fragmentation_can_block_fit(self):
        alloc = FreeListAllocator(300)
        a = alloc.allocate(100)
        b = alloc.allocate(100)
        alloc.allocate(100)
        alloc.free(a)
        # 100B free at offset 0 and... free b too -> 200 free but split
        alloc.free(b)
        assert alloc.available == 200
        assert alloc.allocate(200).offset == 0  # a+b coalesce (adjacent)

    def test_first_fit_order(self):
        alloc = FreeListAllocator(300)
        a = alloc.allocate(100)
        alloc.allocate(100)
        c = alloc.allocate(100)
        alloc.free(a)
        alloc.free(c)
        d = alloc.allocate(50)
        assert d.offset == 0  # first fit takes the earliest range


class TestPaged:
    def test_no_fragmentation_ever(self):
        """Virtual allocation: capacity is the only constraint."""
        alloc = PagedAllocator(300)
        held = [alloc.allocate(100) for _ in range(3)]
        alloc.free(held[0])
        alloc.free(held[2])
        # 200 bytes free in two 'holes' - still allocatable as one block
        assert alloc.allocate(200).nbytes == 200


class TestPool:
    def test_hit_after_free_same_class(self):
        pool = PoolAllocator(1 << 20)
        a = pool.allocate(5000)
        pool.free(a)
        # the freed chunk is pooled: the next same-class allocation hits
        # and reuses it
        assert pool.alloc_cost(5000) == pool.pool_hit_cost
        assert pool.allocate(5000).offset == a.offset
        assert pool.alloc_cost(5000) > pool.pool_hit_cost

    def test_size_class_rounding(self):
        assert PoolAllocator.size_class(1) == 4096
        assert PoolAllocator.size_class(4096) == 4096
        assert PoolAllocator.size_class(4097) == 8192
        assert PoolAllocator.size_class(3 << 20) == 4 << 20

    def test_pool_hit_is_cheap(self):
        pool = PoolAllocator(1 << 20)
        cold_cost = pool.alloc_cost(5000)
        a = pool.allocate(5000)
        pool.free(a)
        warm_cost = pool.alloc_cost(5000)
        assert warm_cost < cold_cost

    def test_different_class_misses(self):
        pool = PoolAllocator(1 << 20)
        a = pool.allocate(4096)
        pool.free(a)
        assert pool.alloc_cost(100_000) > pool.pool_hit_cost
        pool.allocate(100_000)
        # the pooled 4 KiB chunk is still there for its own class
        assert pool.alloc_cost(4096) == pool.pool_hit_cost


@pytest.mark.parametrize("cls", [FreeListAllocator, PagedAllocator])
class TestAllocatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=5000)),
        max_size=60))
    def test_usage_never_negative_or_above_capacity(self, cls, ops):
        """Random alloc/free sequences keep the accounting consistent."""
        alloc = cls(20_000)
        live = []
        for do_alloc, size in ops:
            if do_alloc or not live:
                try:
                    live.append(alloc.allocate(size))
                except CapacityError:
                    pass
            else:
                alloc.free(live.pop(0))
            assert 0 <= alloc.used <= alloc.capacity
            assert alloc.used == sum(a.nbytes for a in live)

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000),
                          min_size=1, max_size=30))
    def test_free_everything_returns_to_empty(self, cls, sizes):
        alloc = cls(100_000)
        held = [alloc.allocate(s) for s in sizes]
        for a in held:
            alloc.free(a)
        assert alloc.used == 0
        # every free range coalesced back into one: the whole device fits
        assert alloc.allocate(alloc.capacity).nbytes == alloc.capacity
