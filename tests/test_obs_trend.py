"""Trend history: BENCH collection, idempotent append, dashboard HTML."""

import json

import pytest

from repro.obs import trend
from repro.obs.trend import (DEFAULT_TREND_METRICS, append_history,
                             collect_bench_files, load_history,
                             render_trend_html)


def write_bench_file(directory, name, metrics, created="2026-01-01T00:00:00"):
    payload = {"bench": name, "schema": 1, "created": created,
               "python": "3.11", "metrics": metrics}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


@pytest.fixture
def bench_dir(tmp_path, monkeypatch):
    """Read and write BENCH files under ``tmp_path``, not the repo root."""
    monkeypatch.setattr(trend, "repo_root", lambda: tmp_path)
    return tmp_path


class TestCollect:
    def test_collects_by_bench_name(self, bench_dir):
        write_bench_file(bench_dir, "simcore",
                         {"event_churn": {"ops_per_s": 1e5}})
        write_bench_file(bench_dir, "obs",
                         {"stencil_1gib_multi_io": {"disabled_x": 1.0}})
        benches = collect_bench_files()
        assert set(benches) == {"simcore", "obs"}

    def test_ignores_corrupt_files(self, bench_dir):
        (bench_dir / "BENCH_bad.json").write_text("{not json")
        write_bench_file(bench_dir, "ok", {"s": {"m": 1.0}})
        assert set(collect_bench_files()) == {"ok"}

    def test_folds_e2e_run_medians(self, bench_dir):
        run = {"seed": 0, "python": "3.11", "correct": True,
               "units": {"wall_s": "s"},
               "workloads": {"fig9-matmul": {
                   "wall_s": {"median": 0.9, "q1": 0.8, "q3": 1.0, "n": 5},
                   "peak_rss_mb": {"median": 49.0, "q1": 48.0, "q3": 50.0,
                                   "n": 5}}}}
        (bench_dir / "BENCH_e2e.json").write_text(json.dumps(run))
        e2e = collect_bench_files()["e2e"]
        assert e2e["metrics"] == {"fig9-matmul": {"wall_s": 0.9,
                                                  "peak_rss_mb": 49.0}}
        record = append_history("c1", path=bench_dir / "h.jsonl")
        html = render_trend_html([record])
        assert "e2e fig9-matmul wall (s)" in html

    def test_e2e_file_without_workloads_is_skipped(self, bench_dir):
        (bench_dir / "BENCH_e2e.json").write_text(json.dumps({"seed": 0}))
        assert collect_bench_files() == {}

    def test_repo_has_bench_files_to_collect(self):
        # the committed snapshots feed the CI trend job
        assert "probe" in collect_bench_files()


class TestAppend:
    def test_appends_one_record(self, bench_dir):
        write_bench_file(bench_dir, "simcore", {"s": {"m": 2.0}})
        history = bench_dir / "bench_history.jsonl"
        record = append_history("abc123", path=history)
        assert record is not None
        assert record["commit"] == "abc123"
        assert record["created"] == "2026-01-01T00:00:00"
        assert len(load_history(history)) == 1

    def test_idempotent_per_commit(self, bench_dir):
        write_bench_file(bench_dir, "simcore", {"s": {"m": 2.0}})
        history = bench_dir / "bench_history.jsonl"
        assert append_history("abc", path=history) is not None
        assert append_history("abc", path=history) is None
        assert len(load_history(history)) == 1

    def test_no_bench_files_appends_nothing(self, bench_dir):
        history = bench_dir / "bench_history.jsonl"
        assert append_history("abc", path=history) is None
        assert not history.exists()

    def test_created_is_max_of_bench_files_not_wall_clock(self, bench_dir):
        write_bench_file(bench_dir, "a", {"s": {"m": 1.0}},
                         created="2026-01-01T00:00:00")
        write_bench_file(bench_dir, "b", {"s": {"m": 1.0}},
                         created="2026-03-02T00:00:00")
        record = append_history("c1", path=bench_dir / "h.jsonl")
        assert record["created"] == "2026-03-02T00:00:00"


class TestLoad:
    def test_skips_junk_lines(self, bench_dir):
        history = bench_dir / "h.jsonl"
        good = {"commit": "a", "benches": {}}
        history.write_text(json.dumps(good) + "\n{broken\n\n")
        assert load_history(history) == [good]

    def test_missing_file_is_empty(self, bench_dir):
        assert load_history(bench_dir / "nope.jsonl") == []


class TestRender:
    def history(self, bench_dir, commits=("c1", "c2", "c3")):
        history = bench_dir / "h.jsonl"
        for i, commit in enumerate(commits):
            write_bench_file(bench_dir, "simcore",
                             {"event_churn": {"ops_per_s": 1e5 * (i + 1)}})
            append_history(commit, path=history)
        return load_history(history)

    def test_sparklines_rendered(self, bench_dir):
        html = render_trend_html(self.history(bench_dir))
        assert "<svg" in html and "polyline" in html
        assert "sim-core event churn" in html

    def test_deterministic_bytes(self, bench_dir):
        records = self.history(bench_dir)
        assert render_trend_html(records) == render_trend_html(records)

    def test_empty_history_renders_placeholder(self):
        html = render_trend_html([])
        assert "No bench history yet" in html

    def test_missing_metrics_are_skipped(self, bench_dir):
        html = render_trend_html(self.history(bench_dir))
        # only simcore bench written: no bwlint row in the output
        assert "bwlint" not in html

    def test_default_metric_paths_are_three_level(self):
        for dotted, _label in DEFAULT_TREND_METRICS:
            assert dotted.count(".") == 2
