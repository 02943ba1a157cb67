"""Unit tests for tracing, projections aggregation, rendering, export."""

import json

import pytest

from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent
from repro.trace.export import to_json
from repro.trace.projections import build_report
from repro.trace.render import render_usage_bars
from repro.trace.tracer import Tracer


def _log(tracer, events):
    """Append ready-made intervals to the tracer's column log."""
    for event in events:
        for column, value in zip(TraceEvent._fields, event):
            getattr(tracer.log, column).append(value)


@pytest.fixture
def tracer():
    env = Environment()
    t = Tracer(env)
    _log(t, [
        TraceEvent("pe0", TraceCategory.EXECUTE, 0.0, 4.0, "kernel-a"),
        TraceEvent("pe0", TraceCategory.PREPROCESS_FETCH, 4.0, 5.0, "fetch-a"),
        TraceEvent("pe1", TraceCategory.EXECUTE, 1.0, 2.0, "kernel-b"),
        TraceEvent("io0", TraceCategory.IO_FETCH, 0.0, 3.0, "fetch-b"),
    ])
    return t


class TestTraceEvent:
    def test_duration(self):
        ev = TraceEvent("pe0", TraceCategory.EXECUTE, 1.0, 3.5)
        assert ev.duration == 2.5

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent("pe0", TraceCategory.EXECUTE, 3.0, 1.0)


class TestTracer:
    def test_lanes_sorted(self, tracer):
        lanes = sorted({ev.lane for ev in tracer.events})
        assert lanes == ["io0", "pe0", "pe1"]

    def test_total_time_by_category(self, tracer):
        execute = [ev for ev in tracer.events
                   if ev.category is TraceCategory.EXECUTE]
        assert sum(ev.duration for ev in execute) == 5.0
        assert sum(ev.duration for ev in execute if ev.lane == "pe0") == 4.0


class TestProjections:
    def test_window_defaults_to_latest_event(self, tracer):
        report = build_report(tracer)
        assert report.window == 5.0

    def test_category_totals_per_lane(self, tracer):
        report = build_report(tracer)
        pe0 = report.lanes["pe0"]
        assert pe0.execute == 4.0
        assert pe0.preprocess_fetch == 1.0
        assert pe0.idle == 0.0

    def test_idle_accounts_for_gaps(self, tracer):
        pe1 = build_report(tracer).lanes["pe1"]
        assert pe1.execute == 1.0
        assert pe1.idle == 4.0
        assert pe1.utilization == pytest.approx(0.2)

    def test_wait_fraction_combines_idle_and_overhead(self, tracer):
        pe0 = build_report(tracer).lanes["pe0"]
        # overhead (1.0) / window (5.0)
        assert pe0.wait_fraction == pytest.approx(0.2)

    def test_worker_and_io_lane_split(self, tracer):
        report = build_report(tracer)
        assert [tl.lane for tl in report.worker_lanes] == ["pe0", "pe1"]
        assert sorted(report.lanes) == ["io0", "pe0", "pe1"]

    def test_mean_metrics(self, tracer):
        report = build_report(tracer)
        assert report.mean_utilization() == pytest.approx((0.8 + 0.2) / 2)
        assert 0.0 < report.mean_wait_fraction() < 1.0

    def test_preprocess_per_task(self, tracer):
        report = build_report(tracer)
        per_task = report.mean_preprocess_per_task({"pe0": 2, "pe1": 1})
        assert per_task == pytest.approx(1.0 / 3)

    def test_summary_rows(self, tracer):
        lanes = build_report(tracer).lanes
        assert sorted(lanes) == ["io0", "pe0", "pe1"]
        assert all(0.0 <= tl.utilization <= 1.0 for tl in lanes.values())


class TestRendering:
    def test_usage_bars(self, tracer):
        art = render_usage_bars(build_report(tracer), width=20)
        assert "util" in art and "wait" in art
        assert "pe0" in art


class TestExport:
    def test_json_chrome_trace_shape(self, tracer):
        doc = json.loads(to_json(tracer))
        events = doc["traceEvents"]
        assert len(events) == 4
        first = events[0]
        assert first["ph"] == "X"
        assert first["ts"] == 0.0
        assert first["dur"] == 4.0e6  # microseconds
