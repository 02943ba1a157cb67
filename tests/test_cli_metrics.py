"""CLI coverage for --metrics and the `repro metrics` subcommand."""

import json

import pytest

from repro.cli import main
from repro import hooks as probe
from tests.test_metrics_export import validate_exposition

SMALL_STENCIL = ["--cores", "8", "--mcdram", "128MiB", "--ddr", "1GiB",
                 "--total", "128MiB", "--block", "8MiB", "--iterations", "1"]


@pytest.fixture(autouse=True)
def clean_hook_slot():
    yield
    # a failed run must never leak a registry into the next test
    assert probe.on_fetch is None


class TestMetricsFlag:
    def test_stencil_metrics_report(self, capsys):
        code = main(["stencil", "--strategy", "multi-io", "--metrics",
                     "--format", "report", *SMALL_STENCIL])
        assert code == 0
        out = capsys.readouterr().out
        assert "flight recorder report: stencil" in out
        assert "repro_moved_bytes_total" in out
        assert "-- histograms" in out

    def test_stencil_metrics_prom_validates(self, capsys):
        code = main(["stencil", "--strategy", "multi-io", "--metrics",
                     "--format", "prom", *SMALL_STENCIL])
        assert code == 0
        out = capsys.readouterr().out
        # stdout = app summary then the exposition; validate the latter
        start = out.index("# HELP")
        assert validate_exposition(out[start:]) == []
        assert "# TYPE repro_moves_total counter" in out

    def test_matmul_metrics(self, capsys):
        code = main(["matmul", "--strategy", "multi-io", "--metrics",
                     "--cores", "8", "--mcdram", "128MiB", "--ddr", "1GiB",
                     "--working-set", "64MiB", "--block-dim", "64"])
        assert code == 0
        assert "flight recorder report: matmul" in capsys.readouterr().out

    def test_without_flag_no_metrics_output(self, capsys):
        code = main(["stencil", "--strategy", "multi-io", *SMALL_STENCIL])
        assert code == 0
        assert "flight recorder" not in capsys.readouterr().out


class TestMetricsSubcommand:
    def test_report_default(self, capsys):
        code = main(["metrics", "--app", "stencil", "--strategy", "multi-io",
                     *SMALL_STENCIL])
        assert code == 0
        assert "flight recorder report" in capsys.readouterr().out

    def test_stream_app_json(self, capsys):
        code = main(["metrics", "--app", "stream", "--cores", "4",
                     "--mcdram", "64MiB", "--ddr", "512MiB",
                     "--chares", "8", "--array", "2MiB",
                     "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["schema"] == 1
        assert any(i["name"] == "repro_mem_used_bytes"
                   for i in doc["instruments"])

    def test_watch_narration(self, capsys):
        code = main(["metrics", "--app", "stencil", "--watch",
                     "--metrics-interval", "0.005", *SMALL_STENCIL])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "hbm=" in l]
        assert len(lines) >= 2
        assert "waitq=" in lines[0] and "moved=" in lines[0]

    def test_trace_out_merges_counter_events(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(["metrics", "--app", "stencil", "--trace-out", str(path),
                     *SMALL_STENCIL])
        assert code == 0
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "C"}
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        assert counter["cat"] == "metrics"
        assert "value" in counter["args"]
