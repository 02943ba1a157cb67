"""Tests for the HBM occupancy timeline."""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.trace.occupancy import occupancy_stats, render_occupancy
from repro.trace.tracer import Tracer
from repro.units import GiB, MiB


class TestOccupancyStats:
    def test_empty_log(self):
        assert occupancy_stats([], 100)["samples"] == 0

    def test_single_sample(self):
        stats = occupancy_stats([(0.0, 50)], 100)
        assert stats["peak"] == 0.5
        assert stats["mean"] == 0.5

    def test_single_sample_mean_is_a_fraction(self):
        # regression: the one-entry path must normalise by capacity —
        # a raw byte count (here 512 MiB) would leak out as mean > 1
        capacity = 1 << 30
        stats = occupancy_stats([(3.5, 512 * 1024 * 1024)], capacity)
        assert stats["mean"] == pytest.approx(0.5)
        assert stats["peak"] == pytest.approx(0.5)
        assert 0.0 <= stats["mean"] <= 1.0

    def test_zero_span_multi_sample_mean_is_a_fraction(self):
        # two samples at the same instant: the span is zero, so the mean
        # falls back to the last sample's occupancy — still a fraction
        stats = occupancy_stats([(1.0, 25), (1.0, 75)], 100)
        assert stats["mean"] == pytest.approx(0.75)
        assert stats["peak"] == pytest.approx(0.75)
        assert stats["samples"] == 2

    def test_time_weighted_mean(self):
        # 100% for 1s, then 0% for 9s -> mean 10%
        log = [(0.0, 100), (1.0, 0), (10.0, 0)]
        stats = occupancy_stats(log, 100)
        assert stats["peak"] == 1.0
        assert stats["mean"] == pytest.approx(0.1)

    def test_render_contains_stats(self):
        log = [(0.0, 0), (1.0, 80), (2.0, 100)]
        art = render_occupancy(log, 100, width=20)
        assert "peak=100%" in art
        assert art.startswith("hbm |")

    def test_render_empty(self):
        assert render_occupancy([], 100) == "(no occupancy samples)"


class TestOccupancyFromRun:
    def test_manager_logs_moves_when_tracing(self):
        built = OOCRuntimeBuilder("multi-io", cores=8,
                                  mcdram_capacity=256 * MiB,
                                  ddr_capacity=2 * GiB).build()
        cfg = StencilConfig(total_bytes=512 * MiB, block_bytes=16 * MiB,
                            iterations=2)
        tracer = Tracer(built.env).install()
        try:
            Stencil3D(built, cfg).run()
        finally:
            tracer.uninstall()
        log = tracer.occupancy
        assert len(log) > 0
        times = [t for t, _ in log]
        assert times == sorted(times)
        stats = occupancy_stats(log, built.machine.hbm.capacity)
        assert 0.5 < stats["peak"] <= 1.0  # out-of-core run fills HBM
