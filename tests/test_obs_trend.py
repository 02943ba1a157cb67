"""Trend history: BENCH collection, idempotent append, dashboard HTML."""

import json

from repro.obs.trend import (DEFAULT_TREND_METRICS, append_history,
                             collect_bench_files, load_history,
                             render_trend_html)


def write_bench_file(directory, name, metrics, created="2026-01-01T00:00:00"):
    payload = {"bench": name, "schema": 1, "created": created,
               "python": "3.11", "metrics": metrics}
    (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))


class TestCollect:
    def test_collects_by_bench_name(self, tmp_path):
        write_bench_file(tmp_path, "simcore",
                         {"event_churn": {"ops_per_s": 1e5}})
        write_bench_file(tmp_path, "obs",
                         {"stencil_1gib_multi_io": {"disabled_x": 1.0}})
        benches = collect_bench_files(tmp_path)
        assert set(benches) == {"simcore", "obs"}

    def test_ignores_corrupt_files(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        write_bench_file(tmp_path, "ok", {"s": {"m": 1.0}})
        assert set(collect_bench_files(tmp_path)) == {"ok"}

    def test_repo_has_bench_files_to_collect(self):
        # the committed snapshots feed the CI trend job
        assert "probe" in collect_bench_files()


class TestAppend:
    def test_appends_one_record(self, tmp_path):
        write_bench_file(tmp_path, "simcore", {"s": {"m": 2.0}})
        history = tmp_path / "bench_history.jsonl"
        record = append_history("abc123", directory=tmp_path, path=history)
        assert record is not None
        assert record["commit"] == "abc123"
        assert record["created"] == "2026-01-01T00:00:00"
        assert len(load_history(history)) == 1

    def test_idempotent_per_commit(self, tmp_path):
        write_bench_file(tmp_path, "simcore", {"s": {"m": 2.0}})
        history = tmp_path / "bench_history.jsonl"
        assert append_history("abc", directory=tmp_path,
                              path=history) is not None
        assert append_history("abc", directory=tmp_path,
                              path=history) is None
        assert len(load_history(history)) == 1

    def test_no_bench_files_appends_nothing(self, tmp_path):
        history = tmp_path / "bench_history.jsonl"
        assert append_history("abc", directory=tmp_path,
                              path=history) is None
        assert not history.exists()

    def test_created_is_max_of_bench_files_not_wall_clock(self, tmp_path):
        write_bench_file(tmp_path, "a", {"s": {"m": 1.0}},
                         created="2026-01-01T00:00:00")
        write_bench_file(tmp_path, "b", {"s": {"m": 1.0}},
                         created="2026-03-02T00:00:00")
        record = append_history("c1", directory=tmp_path,
                                path=tmp_path / "h.jsonl")
        assert record["created"] == "2026-03-02T00:00:00"


class TestLoad:
    def test_skips_junk_lines(self, tmp_path):
        history = tmp_path / "h.jsonl"
        good = {"commit": "a", "benches": {}}
        history.write_text(json.dumps(good) + "\n{broken\n\n")
        assert load_history(history) == [good]

    def test_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []


class TestRender:
    def history(self, tmp_path, commits=("c1", "c2", "c3")):
        history = tmp_path / "h.jsonl"
        for i, commit in enumerate(commits):
            write_bench_file(tmp_path, "simcore",
                             {"event_churn": {"ops_per_s": 1e5 * (i + 1)}})
            append_history(commit, directory=tmp_path, path=history)
        return load_history(history)

    def test_sparklines_rendered(self, tmp_path):
        html = render_trend_html(self.history(tmp_path))
        assert "<svg" in html and "polyline" in html
        assert "sim-core event churn" in html

    def test_deterministic_bytes(self, tmp_path):
        records = self.history(tmp_path)
        assert render_trend_html(records) == render_trend_html(records)

    def test_empty_history_renders_placeholder(self):
        html = render_trend_html([])
        assert "No bench history yet" in html

    def test_missing_metrics_are_skipped(self, tmp_path):
        html = render_trend_html(self.history(tmp_path))
        # only simcore bench written: no bwlint row in the output
        assert "bwlint" not in html

    def test_default_metric_paths_are_three_level(self):
        for dotted, _label in DEFAULT_TREND_METRICS:
            assert dotted.count(".") == 2
