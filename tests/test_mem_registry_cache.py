"""Unit + property tests for BlockRegistry and the cache-mode model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BlockStateError, ConfigError
from repro.machine.knl import build_knl
from repro.mem.block import BlockState, DataBlock
from repro.mem.cache import DirectMappedCache
from repro.sim.environment import Environment
from repro.units import GiB, KiB, MiB
from tests.mem_oracle import check_registry_invariants, simulate_miss_rate


@pytest.fixture
def node():
    return build_knl(Environment(), mcdram_capacity=GiB, ddr_capacity=4 * GiB)


class TestRegistry:
    def test_register_and_lookup(self, node):
        block = DataBlock("b", 100)
        node.registry.register(block)
        assert block in node.registry
        assert node.registry.get(block.bid) is block

    def test_double_register_rejected(self, node):
        block = DataBlock("b", 100)
        node.registry.register(block)
        with pytest.raises(BlockStateError):
            node.registry.register(block)

    def test_bytes_in_state(self, node):
        for i, dev in enumerate([node.hbm, node.hbm, node.ddr]):
            block = DataBlock(f"b{i}", 1000)
            node.registry.register(block)
            node.topology.place_block(block, dev)
        assert node.registry.bytes_in_state(BlockState.INHBM) == 2000
        assert node.registry.bytes_in_state(BlockState.INDDR) == 1000

    def test_evictable_excludes_in_use_and_pinned(self, node):
        free_b = DataBlock("free", 10)
        used_b = DataBlock("used", 10)
        pinned_b = DataBlock("pinned", 10)
        for b in (free_b, used_b, pinned_b):
            node.registry.register(b)
            node.topology.place_block(b, node.hbm)
        used_b.retain()
        pinned_b.pinned = True
        assert node.registry.evictable_blocks() == [free_b]

    def test_invariants_pass_on_clean_state(self, node):
        block = DataBlock("b", 100)
        node.registry.register(block)
        node.topology.place_block(block, node.hbm)
        check_registry_invariants(node.registry)

    def test_invariants_catch_dangling_residency(self, node):
        block = DataBlock("b", 100)
        node.registry.register(block)
        node.topology.place_block(block, node.hbm)
        node.topology.release_block(block)  # state still says INHBM
        with pytest.raises(BlockStateError):
            check_registry_invariants(node.registry)

    def test_resident_bytes_per_device(self, node):
        block = DataBlock("b", 512)
        node.registry.register(block)
        node.topology.place_block(block, node.ddr)
        assert node.registry.resident_bytes("ddr4") == 512
        assert node.registry.resident_bytes("mcdram") == 0


class TestDirectMappedCache:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            DirectMappedCache(0)
        with pytest.raises(ConfigError):
            DirectMappedCache(100, line_size=64)  # not a multiple

    def test_tiny_working_set_rarely_misses(self):
        cache = DirectMappedCache(16 * MiB)
        assert cache.miss_rate(64 * KiB, reuse_sweeps=1000) < 0.05

    def test_oversized_working_set_mostly_misses(self):
        cache = DirectMappedCache(16 * MiB)
        assert cache.miss_rate(160 * MiB) > 0.85

    def test_miss_rate_monotone_in_working_set(self):
        cache = DirectMappedCache(16 * MiB)
        rates = [cache.miss_rate(ws) for ws in
                 (MiB, 4 * MiB, 12 * MiB, 32 * MiB, 64 * MiB)]
        assert rates == sorted(rates)

    def test_conflicts_exist_even_when_fitting(self):
        """The paper's §I claim: caching suffers conflict misses."""
        cache = DirectMappedCache(16 * MiB)
        assert cache.conflict_fraction(12 * MiB) > 0.1
        # without zonesort-style page colouring it is far worse
        raw = DirectMappedCache(16 * MiB, page_coloring_quality=0.0)
        assert raw.conflict_fraction(12 * MiB) > 0.4
        # perfect colouring removes self-conflicts entirely
        ideal = DirectMappedCache(16 * MiB, page_coloring_quality=1.0)
        assert ideal.conflict_fraction(12 * MiB) == 0.0

    def test_effective_bandwidth_between_endpoints(self):
        cache = DirectMappedCache(16 * MiB, hit_bandwidth=400e9,
                                  miss_bandwidth=80e9)
        bw = cache.effective_bandwidth(8 * MiB)
        # above the miss floor (modulo the per-line occupancy penalty),
        # below the pure-hit ceiling
        assert 0.5 * 80e9 < bw < 400e9
        assert bw < cache.effective_bandwidth(64 * KiB)

    def test_sweep_time_scales_linearly(self):
        cache = DirectMappedCache(16 * MiB)
        t1 = cache.sweep_time(8 * MiB, 1e9)
        t2 = cache.sweep_time(8 * MiB, 2e9)
        assert t2 == pytest.approx(2 * t1)

    def test_simulation_validates_model_capacity_regime(self):
        """Monte-Carlo mapping agrees with the closed form when thrashing."""
        cache = DirectMappedCache(4 * MiB, line_size=4096)
        ws = 16 * MiB
        simulated = simulate_miss_rate(cache, ws, sweeps=4)
        modelled = cache.miss_rate(ws, reuse_sweeps=4)
        assert simulated == pytest.approx(modelled, abs=0.15)

    @settings(max_examples=25, deadline=None)
    @given(ws=st.integers(min_value=4096, max_value=64 * MiB))
    def test_miss_rate_bounded(self, ws):
        cache = DirectMappedCache(16 * MiB)
        assert 0.0 <= cache.miss_rate(ws) <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(ws=st.integers(min_value=4096, max_value=64 * MiB))
    def test_effective_bandwidth_bounded(self, ws):
        cache = DirectMappedCache(16 * MiB, hit_bandwidth=400e9,
                                  miss_bandwidth=80e9)
        bw = cache.effective_bandwidth(ws)
        assert 0 < bw <= 400e9
