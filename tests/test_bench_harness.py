"""Tests for the benchmark harness and the fast experiment definitions."""

import pytest

from repro.bench.experiments import PLANS, fig1_plan, fig7_plan
from repro.bench.harness import ExperimentResult, Scale, run_plan, speedup_table
from repro.bench.report import format_table, render_experiment
from repro.units import GiB


class TestScale:
    def test_factors(self):
        assert Scale.FULL.factor == 1
        assert Scale.SMALL.factor == 16

    def test_capacities_scale_together(self):
        assert Scale.SMALL.mcdram == GiB
        assert Scale.SMALL.ddr == 6 * GiB
        assert Scale.FULL.mcdram == 16 * GiB

    def test_size_helper(self):
        assert Scale.MEDIUM.size(32 * GiB) == 8 * GiB


class TestSpeedupTable:
    def test_normalises_to_baseline(self):
        times = {"2GB": {"naive": 2.0, "multi-io": 1.0, "ddr-only": 4.0}}
        table = speedup_table(times)
        assert table["2GB"]["naive"] == 1.0
        assert table["2GB"]["multi-io"] == 2.0
        assert table["2GB"]["ddr-only"] == 0.5

    def test_custom_baseline(self):
        times = {"x": {"a": 1.0, "b": 3.0}}
        assert speedup_table(times, baseline="b")["x"]["a"] == 3.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["col", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "1.5" in text and "2.25" in text

    def test_render_experiment(self):
        result = ExperimentResult(
            figure="FigX", description="demo", unit="speedup",
            series={"2GB": {"A": 1.0, "B": 2.0}},
            notes={"k": "v"})
        text = render_experiment(result)
        assert "FigX" in text and "demo" in text
        assert "note: k = v" in text

    def test_series_names_preserve_order(self):
        result = ExperimentResult(
            figure="F", description="", unit="",
            series={"x": {"B": 1.0, "A": 2.0}, "y": {"C": 3.0}})
        assert result.series_names() == ["B", "A", "C"]


class TestFastExperiments:
    """The two experiments cheap enough for the unit-test suite."""

    def test_fig1_shape(self):
        result = run_plan(fig1_plan(threads=32))
        assert set(result.series) == {"copy", "scale", "add", "triad"}
        for row in result.series.values():
            assert row["mcdram"] > 4 * row["ddr4"]

    def test_fig1_one_thread_cannot_saturate(self):
        """One core cannot extract full MCDRAM bandwidth (this is what
        makes the per-PE contention model meaningful)."""
        for row in run_plan(fig1_plan(threads=1)).series.values():
            assert row["mcdram"] < 20  # GB/s; capped by per-core bandwidth

    def test_fig7_shape(self):
        # the direction asymmetry needs enough threads to saturate the
        # DDR4 ports (64 x 5 GB/s >> 80 GB/s)
        result = run_plan(fig7_plan(Scale.SMALL, block_gb=(1, 4), threads=64))
        assert list(result.series) == ["1GB", "4GB"]
        for row in result.series.values():
            assert row["hbm-to-ddr"] > row["ddr-to-hbm"]
        assert (result.series["4GB"]["ddr-to-hbm"]
                > result.series["1GB"]["ddr-to-hbm"])


class TestPlanClaims:
    """The paper's shape claims hold on the TINY figure tables.

    Figure 9 at TINY takes ~30 s, so CI checks its claims through
    ``repro experiments`` instead.
    """

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig5", "fig6", "fig7"])
    def test_claims_hold(self, name):
        plan = PLANS[name](Scale.TINY)
        assert plan.claims(run_plan(plan)) == []

    def test_fig8_claims_hold(self, fig8_tiny_plan, fig8_tiny_result):
        assert fig8_tiny_plan().claims(fig8_tiny_result) == []
