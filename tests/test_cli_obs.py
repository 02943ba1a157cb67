"""CLI coverage for the observability surface: spmv parity, --spans,
``repro report`` (determinism included) and ``repro trend``."""

import json

import pytest

from repro.cli import main


class TestSpmvCommand:
    """SpMV now has the same CLI surface as stencil/matmul (S2)."""

    ARGS = ["spmv", "--strategy", "multi-io", "--cores", "8",
            "--mcdram", "128MiB", "--ddr", "1GiB",
            "--block-rows", "16", "--block-bytes", "4MiB",
            "--iterations", "1"]

    def test_basic_run(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "strategy        : multi-io" in out
        assert "block rows      : 16" in out

    def test_metrics_flag(self, capsys):
        assert main([*self.ARGS, "--metrics", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "repro_moved_bytes_total" in out

    def test_metrics_json_format(self, capsys):
        assert main([*self.ARGS, "--metrics", "--format", "json"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        assert json.loads(out[start:])

    def test_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        assert main([*self.ARGS, "--metrics", "--trace-out",
                     str(trace)]) == 0
        capsys.readouterr()
        doc = json.loads(trace.read_text())
        assert any(e["ph"] == "C" for e in doc["traceEvents"])

    def test_race_flag(self, capsys):
        assert main([*self.ARGS, "--race"]) == 0
        assert "racesan" in capsys.readouterr().out

    def test_race_subcommand_accepts_spmv(self, capsys):
        code = main(["race", "--app", "spmv", "--block-rows", "8",
                     "--block-bytes", "4MiB", "--iterations", "1",
                     "--explore-schedules", "2"])
        assert code == 0
        assert "explored 2 schedule(s): 0 failing" in capsys.readouterr().out

    def test_metrics_subcommand_accepts_spmv(self, capsys):
        code = main(["metrics", "--app", "spmv", "--cores", "8",
                     "--mcdram", "128MiB", "--ddr", "1GiB",
                     "--block-rows", "8", "--block-bytes", "4MiB",
                     "--iterations", "1", "--format", "prom"])
        assert code == 0
        assert 'repro_tasks_readied{app="spmv"' in capsys.readouterr().out


class TestSpansFlag:
    def test_stencil_spans_prints_critical_path(self, capsys):
        code = main(["stencil", "--strategy", "multi-io", "--cores", "8",
                     "--mcdram", "128MiB", "--ddr", "1GiB",
                     "--total", "256MiB", "--block", "16MiB",
                     "--iterations", "1", "--spans"])
        assert code == 0
        out = capsys.readouterr().out
        assert "== critical path: stencil/multi-io ==" in out
        assert "compute" in out and "scheduling" in out
        assert "longest chains" in out

    def test_spans_merge_into_trace_without_metrics(self, tmp_path,
                                                    capsys):
        trace = tmp_path / "t.json"
        code = main(["spmv", "--strategy", "multi-io", "--cores", "8",
                     "--mcdram", "128MiB", "--ddr", "1GiB",
                     "--block-rows", "16", "--block-bytes", "4MiB",
                     "--iterations", "1", "--spans",
                     "--trace-out", str(trace)])
        assert code == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("cat", "").startswith("span.") for e in events)
        assert any(e["ph"] == "s" for e in events)
        assert any(e["ph"] == "f" for e in events)


class TestReportCommand:
    def run_report(self, tmp_path, out_name):
        out = tmp_path / out_name
        code = main(["report", "--figures", "fig1", "--replicates", "2",
                     "--baseline", "ddr4",
                     "--cache-dir", str(tmp_path / "cache"),
                     "-o", str(out)])
        return code, out

    def test_report_runs_and_writes_html(self, tmp_path, capsys):
        code, out = self.run_report(tmp_path, "r.html")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Fig1" in stdout and "replicates=2" in stdout
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_warm_cache_rerun_is_byte_identical(self, tmp_path, capsys):
        _, first = self.run_report(tmp_path, "r1.html")
        _, second = self.run_report(tmp_path, "r2.html")
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        code = main(["report", "--figures", "fig99",
                     "-o", str(tmp_path / "r.html")])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err


class TestTrendCommand:
    def test_append_then_render(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        out = tmp_path / "trend.html"
        assert main(["trend", "append", "--commit", "cafe01",
                     "--history", str(history)]) == 0
        assert main(["trend", "render", "--history", str(history),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        # the repo's committed BENCH files feed the record
        record = json.loads(history.read_text().splitlines()[0])
        assert record["commit"] == "cafe01"
        assert "simcore" in record["benches"]
        assert "<svg" in out.read_text()

    def test_append_is_idempotent(self, tmp_path, capsys):
        history = tmp_path / "h.jsonl"
        for _ in range(2):
            assert main(["trend", "append", "--commit", "c1",
                         "--history", str(history)]) == 0
        capsys.readouterr()
        assert len(history.read_text().splitlines()) == 1

    def test_render_empty_history(self, tmp_path, capsys):
        # an existing empty file; a missing one is a usage error
        # (tests/test_cli_errors.py)
        history = tmp_path / "none.jsonl"
        history.write_text("")
        out = tmp_path / "trend.html"
        assert main(["trend", "render",
                     "--history", str(history),
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert "No bench history yet" in out.read_text()


class TestArgumentValidation:
    def test_spmv_bad_strategy_rejected(self):
        with pytest.raises(SystemExit):
            main(["spmv", "--strategy", "wishful"])

    def test_trend_requires_action(self):
        with pytest.raises(SystemExit):
            main(["trend"])
