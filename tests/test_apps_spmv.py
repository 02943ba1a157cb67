"""Tests for the iterated SpMV application."""

import pytest

from repro.apps.spmv import SpMV, SpMVConfig
from repro.core.api import OOCRuntimeBuilder
from repro.core.eviction import LRUEviction
from repro.errors import ConfigError
from repro.units import GiB, MiB


def builder(strategy, cores=8, **kwargs):
    return OOCRuntimeBuilder(strategy, cores=cores,
                             mcdram_capacity=128 * MiB,
                             ddr_capacity=2 * GiB, **kwargs)


class TestSpMVConfig:
    def test_pattern_is_deterministic(self):
        cfg = SpMVConfig(block_rows=16, seed=4)
        assert cfg.coupling_pattern() == cfg.coupling_pattern()
        other = SpMVConfig(block_rows=16, seed=5)
        assert cfg.coupling_pattern() != other.coupling_pattern()

    def test_pattern_includes_diagonal(self):
        cfg = SpMVConfig(block_rows=16, couplings=3)
        for row, cols in enumerate(cfg.coupling_pattern()):
            assert row in cols
            assert len(cols) == 3

    def test_banded_pattern_stays_near_diagonal(self):
        cfg = SpMVConfig(block_rows=64, couplings=3, banded=1.0)
        for row, cols in enumerate(cfg.coupling_pattern()):
            for col in cols:
                distance = min(abs(col - row), 64 - abs(col - row))
                assert distance <= 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SpMVConfig(block_rows=0)
        with pytest.raises(ConfigError):
            SpMVConfig(couplings=0)
        with pytest.raises(ConfigError):
            SpMVConfig(banded=1.5)

    def test_intensity_is_sub_flop_per_byte(self):
        """SpMV is the textbook bandwidth-bound kernel."""
        cfg = SpMVConfig()
        intensity = cfg.flops_per_task / cfg.block_bytes
        assert intensity < 1.0


class TestSpMVRuns:
    def test_completes_all_iterations(self):
        built = builder("multi-io").build()
        cfg = SpMVConfig(block_rows=32, block_bytes=8 * MiB, iterations=3)
        result = SpMV(built, cfg).run()
        assert result.tasks_completed == 32 * 3
        assert len(result.iteration_times) == 3

    def test_cross_iteration_reuse_under_lru(self):
        """When everything fits, LRU keeps blocks resident: after the
        first iteration no further fetches happen."""
        built = builder("multi-io", eviction=LRUEviction()).build()
        cfg = SpMVConfig(block_rows=8, block_bytes=4 * MiB, iterations=4)
        app = SpMV(built, cfg)
        app.run()
        matrix_fetches = sum(
            1 for b in built.machine.registry if b.name.endswith(".A")
            and b.bytes_moved > b.nbytes)
        assert matrix_fetches == 0  # each A block moved exactly once

    def test_shared_x_blocks_counted_once(self):
        built = builder("naive").build()
        cfg = SpMVConfig(block_rows=16, couplings=4)
        SpMV(built, cfg)
        x_blocks = [b for b in built.machine.registry if "('x'" in b.name]
        assert len(x_blocks) == 16  # shared, not duplicated per consumer

    def test_reuse_makes_prefetch_beat_ddr_only(self):
        """SpMV reads each byte once per iteration, so out-of-core tiering
        pays off through *cross-iteration* reuse: once the matrix fits in
        HBM, iterations 2+ run at HBM speed while DDR-only stays slow."""
        cfg = SpMVConfig(block_rows=16, block_bytes=4 * MiB, iterations=6)
        times = {}
        for strategy in ("ddr-only", "multi-io"):
            built = builder(strategy, cores=32).build()
            times[strategy] = SpMV(built, cfg).run().total_time
        assert times["multi-io"] < times["ddr-only"]

    def test_oversubscribed_single_sweep_gains_nothing(self):
        """The flip side (and a real property of tiering): with no reuse
        inside an iteration and a working set larger than HBM, moving data
        costs as much as computing on it in place."""
        cfg = SpMVConfig(block_rows=64, block_bytes=4 * MiB, iterations=3)
        times = {}
        for strategy in ("ddr-only", "multi-io"):
            built = builder(strategy, cores=32).build()
            times[strategy] = SpMV(built, cfg).run().total_time
        assert times["multi-io"] > times["ddr-only"] * 0.8  # no free lunch

    def test_deterministic(self):
        def run():
            built = builder("single-io").build()
            cfg = SpMVConfig(block_rows=24, iterations=2)
            return SpMV(built, cfg).run().total_time
        assert run() == run()
