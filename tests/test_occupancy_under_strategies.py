"""Occupancy behaviour differentiates the static baselines from prefetch.

Static strategies never move data, so the occupancy log stays empty; the
prefetch strategies keep HBM near its budget while cycling an
out-of-core working set (the paper's 'track the HBM memory in use').
"""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.trace.occupancy import occupancy_stats
from repro.trace.tracer import Tracer
from repro.units import GiB, MiB


def run(strategy):
    """One stencil run; returns the stack and its occupancy samples."""
    built = OOCRuntimeBuilder(strategy, cores=8, mcdram_capacity=128 * MiB,
                              ddr_capacity=1 * GiB).build()
    cfg = StencilConfig(total_bytes=256 * MiB, block_bytes=8 * MiB,
                        iterations=2)
    tracer = Tracer(built.env).install()
    try:
        Stencil3D(built, cfg).run()
    finally:
        tracer.uninstall()
    return built, tracer.occupancy


class TestOccupancyByStrategy:
    def test_static_strategies_log_nothing(self):
        for strategy in ("naive", "ddr-only"):
            _, log = run(strategy)
            assert log == []

    @pytest.mark.parametrize("strategy", ["single-io", "no-io", "multi-io"])
    def test_prefetch_strategies_keep_hbm_busy(self, strategy):
        built, log = run(strategy)
        stats = occupancy_stats(log, built.machine.hbm.capacity)
        assert stats["samples"] > 10
        assert stats["peak"] > 0.7
        assert 0.0 < stats["mean"] <= 1.0

    def test_occupancy_never_exceeds_capacity(self):
        built, log = run("multi-io")
        cap = built.machine.hbm.capacity
        assert all(used <= cap for _, used in log)
