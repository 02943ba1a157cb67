"""Exporters: Prometheus exposition, JSON, digest, report, narration."""

import json
import re

import pytest

from repro.metrics.export import (DEFAULT_COUNTER_FAMILIES, counter_series,
                                  digest, narration_line, render_report,
                                  to_json, to_prometheus)
from repro.metrics.recorder import FlightRecorder, Snapshot
from repro.metrics.registry import MetricsRegistry
from repro.sim.environment import Environment

#: one exposition line: name{labels} value  (no timestamps emitted)
_PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf)|NaN)$")
_PROM_COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_][a-zA-Z0-9_]*( .*)?$")


def validate_exposition(text: str) -> list[str]:
    """Line-format check of Prometheus output; returns the bad lines."""
    bad = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT_RE.match(line):
                bad.append(line)
        elif not _PROM_SAMPLE_RE.match(line):
            bad.append(line)
    return bad


@pytest.fixture
def registry():
    reg = MetricsRegistry(strategy="multi-io", app="stencil")
    reg.counter("repro_moves_total", "completed moves",
                src="mcdram", dst="ddr4").inc(5)
    reg.gauge("repro_moves_inflight", "moves in flight").set(2)
    h = reg.histogram("repro_move_latency_seconds", "move latency",
                      boundaries=(0.001, 0.01, 0.1),
                      src="mcdram", dst="ddr4")
    h.observe(0.005)
    h.observe(0.05)
    return reg


class TestPrometheus:
    def test_counter_gets_total_suffix_and_headers(self, registry):
        text = to_prometheus(registry)
        assert "# TYPE repro_moves_total counter" in text
        assert "# HELP repro_moves_total completed moves" in text
        # labels sorted, base labels stamped
        assert ('repro_moves_total{app="stencil",dst="ddr4",src="mcdram",'
                'strategy="multi-io"} 5') in text

    def test_total_suffix_not_doubled(self):
        reg = MetricsRegistry()
        reg.counter("repro_events_total").inc()
        text = to_prometheus(reg)
        assert "repro_events_total_total" not in text
        assert "repro_events_total 1" in text

    def test_gauge_type(self, registry):
        assert "# TYPE repro_moves_inflight gauge" in to_prometheus(registry)

    def test_histogram_buckets_cumulative(self, registry):
        text = to_prometheus(registry)
        assert "# TYPE repro_move_latency_seconds histogram" in text
        # 0.005 <= 0.01, 0.05 <= 0.1: cumulative 0, 1, 2, +Inf 2
        def bucket(le):
            return (f'repro_move_latency_seconds_bucket{{app="stencil",'
                    f'dst="ddr4",src="mcdram",strategy="multi-io",'
                    f'le="{le}"}}')
        assert f"{bucket('0.001')} 0" in text
        assert f"{bucket('0.01')} 1" in text
        assert f"{bucket('0.1')} 2" in text
        assert f"{bucket('+Inf')} 2" in text
        assert "repro_move_latency_seconds_count" in text
        assert "repro_move_latency_seconds_sum" in text

    def test_exposition_validates(self, registry):
        assert validate_exposition(to_prometheus(registry)) == []

    def test_validator_flags_garbage(self):
        bad = validate_exposition("not a metric line\nrepro_ok 1\n# BAD x\n")
        assert "not a metric line" in bad
        assert "# BAD x" in bad
        assert "repro_ok 1" not in bad

    def test_escaping_label_values(self):
        reg = MetricsRegistry()
        reg.counter("repro_c", label='quo"te\\slash').inc()
        text = to_prometheus(reg)
        assert validate_exposition(text) == []


class TestJson:
    def test_round_trip_instruments(self, registry):
        doc = json.loads(to_json(registry))
        assert doc["schema"] == 1
        by_name = {r["name"]: r for r in doc["instruments"]}
        assert by_name["repro_moves_total"]["value"] == 5.0
        assert by_name["repro_moves_total"]["kind"] == "counter"
        assert by_name["repro_moves_inflight"]["high_water"] == 2.0
        hist = by_name["repro_move_latency_seconds"]
        assert hist["count"] == 2
        assert hist["min"] == 0.005
        assert hist["max"] == 0.05

    def test_empty_histogram_serializes_nulls(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat_seconds")
        doc = json.loads(to_json(reg))
        rec = doc["instruments"][0]
        assert rec["count"] == 0
        assert rec["p50"] is None

    def test_snapshots_included_with_recorder(self, registry):
        env = Environment()
        rec = FlightRecorder(env, registry, cadence=0.5).start()
        rec.stop()
        doc = json.loads(to_json(registry, rec))
        assert doc["cadence"] == 0.5
        assert len(doc["snapshots"]) == len(rec)
        assert doc["snapshots"][0]["time"] == 0.0


class TestDigest:
    def test_families_collapse(self, registry):
        d = digest(registry)
        assert d["repro_moves_total"] == 5.0
        assert d["repro_moves_inflight_hwm"] == 2.0
        assert d["repro_move_latency_seconds_count"] == 2.0
        assert "repro_move_latency_seconds_p95" in d

    def test_counter_family_sums_labels(self):
        reg = MetricsRegistry()
        reg.counter("repro_evictions_total", reason="demand").inc(2)
        reg.counter("repro_evictions_total", reason="watermark").inc(3)
        assert digest(reg)["repro_evictions_total"] == 5.0

    def test_empty_histogram_has_no_percentiles(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat_seconds")
        d = digest(reg)
        assert d["repro_lat_seconds_count"] == 0.0
        assert "repro_lat_seconds_p50" not in d

    def test_every_value_is_float(self):
        # regression: int-valued instruments (byte counters, byte-gauge
        # high-water marks) used to leak ints into the digest, so
        # BENCH_*.json serialized "12" next to "12.0" across snapshots
        reg = MetricsRegistry()
        reg.counter("repro_moved_bytes_total").inc(4096)          # int
        reg.gauge("repro_hbm_used_bytes").set(1 << 20)            # int
        reg.histogram("repro_block_bytes").observe(512)           # int
        d = digest(reg)
        assert d["repro_hbm_used_bytes_hwm"] == 1048576.0
        for key, value in d.items():
            assert type(value) is float, f"{key} is {type(value).__name__}"

    def test_float_digest_survives_json_round_trip(self):
        reg = MetricsRegistry()
        reg.gauge("repro_hbm_used_bytes").set(3)
        dumped = json.dumps(digest(reg), sort_keys=True)
        assert json.loads(dumped)["repro_hbm_used_bytes_hwm"] == 3.0
        assert "3.0" in dumped


class TestCounterSeries:
    def test_families_summed_over_labels(self):
        env = Environment()
        reg = MetricsRegistry(clock=lambda: env.now)
        reg.observe("repro_pe_wait_depth", lambda: 2.0, pe="0")
        reg.observe("repro_pe_wait_depth", lambda: 3.0, pe="1")
        rec = FlightRecorder(env, reg, cadence=0.5).start()
        rec.stop()
        series = counter_series(rec)
        assert series["repro_pe_wait_depth"][0] == (0.0, 5.0)
        # absent families are omitted, not empty lists
        assert "repro_hbm_used_bytes" not in series

    def test_default_families_are_counterworthy(self):
        assert "repro_hbm_used_bytes" in DEFAULT_COUNTER_FAMILIES


class TestNarration:
    def test_line_shape_and_deltas(self):
        prev = Snapshot(0.0, {"repro_prefetch_issued_total": 1.0})
        snap = Snapshot(0.5, {
            "repro_prefetch_issued_total": 4.0,
            'repro_mem_used_bytes{tier="mcdram"}': 512.0,
            "repro_pe_wait_depth": 2.0,
        })
        line = narration_line(snap, prev, hbm_capacity=1024,
                              hbm_tier="mcdram")
        assert "hbm= 50%" in line
        assert "fetches=4(+3)" in line
        assert "waitq=2" in line

    def test_without_tier_falls_back_to_pushed_gauge(self):
        snap = Snapshot(0.0, {"repro_hbm_used_bytes": 256.0})
        line = narration_line(snap, None, hbm_capacity=1024)
        assert "hbm= 25%" in line

    def test_without_capacity_prints_bytes(self):
        snap = Snapshot(0.0, {"repro_hbm_used_bytes": 1024.0})
        assert "1.00KiB" in narration_line(snap, None)


class TestReport:
    def test_sections_and_base_label_stripping(self, registry):
        env = Environment()
        rec = FlightRecorder(env, registry, cadence=0.5).start()
        rec.stop()
        report = render_report(registry, rec, title="stencil")
        assert "flight recorder report: stencil" in report
        assert "labels: app=stencil, strategy=multi-io" in report
        assert "-- counters --" in report
        assert "-- gauges" in report
        assert "-- histograms" in report
        # base labels stripped from rows; instrument-own labels kept
        assert "repro_moves_total{dst=ddr4,src=mcdram}" in report
        assert 'strategy=multi-io}' not in report

    def test_report_without_recorder(self, registry):
        report = render_report(registry)
        assert "snapshots:" not in report
        assert "repro_moves_total" in report
