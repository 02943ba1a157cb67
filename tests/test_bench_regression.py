"""BENCH_*.json recording: the written file and the metrics digest."""

import json

from repro.bench.regression import (bench_path, best_wall_time, repo_root,
                                    write_bench)
from repro.metrics.registry import MetricsRegistry
from repro.metrics.export import digest

METRICS = {"scenario_a": {"wall_s": 0.5, "speedup": 2.0}}


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = write_bench("t", METRICS, directory=tmp_path)
        assert path == bench_path("t", tmp_path)
        data = json.loads(path.read_text())
        assert data["bench"] == "t"
        assert data["schema"] == 1
        assert data["metrics"]["scenario_a"]["speedup"] == 2.0
        assert "metrics_digest" not in data

    def test_metrics_digest_rides_along(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_moved_bytes_total", src="mcdram").inc(4096)
        reg.gauge("repro_moves_inflight").set(3)
        path = write_bench("t", METRICS, directory=tmp_path,
                           metrics_digest=digest(reg))
        data = json.loads(path.read_text())
        assert data["metrics_digest"]["repro_moved_bytes_total"] == 4096.0
        assert data["metrics_digest"]["repro_moves_inflight_hwm"] == 3.0

    def test_written_file_is_stable_json(self, tmp_path):
        path = write_bench("t", METRICS, directory=tmp_path)
        doc = json.loads(path.read_text())
        assert sorted(doc) == list(doc)  # sort_keys=True


class TestHelpers:
    def test_repo_root_finds_pyproject(self):
        assert (repo_root() / "pyproject.toml").is_file()

    def test_best_wall_time_returns_min_and_result(self):
        calls = []

        def fn():
            calls.append(1)
            return "out"

        best, result = best_wall_time(fn, repeats=3)
        assert len(calls) == 3
        assert best >= 0.0
        assert result == "out"
