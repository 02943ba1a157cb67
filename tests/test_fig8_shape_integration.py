"""Integration test: the Figure 8 orderings hold at miniature scale.

A fast (seconds) version of the paper's central result, so regressions in
scheduling behaviour fail the unit suite, not just the benchmarks.
"""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.units import GiB, MiB

HBM = 512 * MiB
DDR = 3 * GiB
TOTAL = 1 * GiB         # 2x over-subscription like the paper's 32 vs 16
BLOCK = 2 * MiB
ITERATIONS = 3


@pytest.fixture(scope="module")
def times():
    out = {}
    for strategy in ("naive", "ddr-only", "single-io", "no-io", "multi-io"):
        built = OOCRuntimeBuilder(strategy, cores=64, mcdram_capacity=HBM,
                                  ddr_capacity=DDR).build()
        cfg = StencilConfig(total_bytes=TOTAL, block_bytes=BLOCK,
                            iterations=ITERATIONS)
        out[strategy] = Stencil3D(built, cfg).run().total_time
    return out


class TestFigure8Orderings:
    def test_ddr_only_slower_than_naive(self, times):
        assert times["ddr-only"] > times["naive"]

    def test_single_io_slower_than_naive(self, times):
        """The paper's headline negative result for one IO thread."""
        assert times["single-io"] > times["naive"]

    def test_no_io_beats_naive(self, times):
        assert times["no-io"] < times["naive"]

    def test_multi_io_is_best(self, times):
        assert times["multi-io"] == min(times.values())

    def test_multi_io_speedup_in_paper_band(self, times):
        speedup = times["naive"] / times["multi-io"]
        assert 1.5 < speedup < 3.5

    def test_full_ordering(self, times):
        assert (times["multi-io"] < times["no-io"] < times["naive"]
                < times["single-io"])
