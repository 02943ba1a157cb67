"""CLI integration for the exec engine: experiments -j, cache, race -j."""

import pytest

from repro.bench import experiments as exps
from repro.cli import main


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExperimentsEngine:
    def test_warm_rerun_is_cached_and_byte_identical(self, capsys,
                                                     cache_dir):
        argv = ["experiments", "--figures", "fig1", "-j", "2",
                "--cache-dir", cache_dir, "--cache-stats"]
        code, cold_out, cold_err = run_cli(capsys, argv)
        assert code == 0
        assert "Fig1" in cold_out
        assert "8 store(s)" in cold_err  # 4 kernels x 2 devices
        code, warm_out, warm_err = run_cli(capsys, argv)
        assert code == 0
        assert warm_out == cold_out
        assert "0 miss(es)" in warm_err

    def test_no_cache_bypasses_the_store(self, capsys, cache_dir):
        code, out, _ = run_cli(
            capsys, ["experiments", "--figures", "fig1", "--no-cache",
                     "--cache-dir", cache_dir])
        assert code == 0 and "Fig1" in out
        code, out, err = run_cli(
            capsys, ["cache", "stats", "--cache-dir", cache_dir])
        assert code == 0
        assert "total      : 0 entries" in out

    def test_unknown_figure_exits_2(self, capsys, cache_dir):
        code, _, err = run_cli(
            capsys, ["experiments", "--figures", "fig99",
                     "--cache-dir", cache_dir])
        assert code == 2
        assert "fig99" in err

    def test_progress_lines_go_to_stderr(self, capsys, cache_dir):
        _, out, err = run_cli(
            capsys, ["experiments", "--figures", "fig1",
                     "--cache-dir", cache_dir])
        assert "[1/" in err and "fig1/" in err
        assert "[1/" not in out

    def test_broken_claim_exits_1_with_the_table_intact(self, capsys,
                                                        monkeypatch,
                                                        cache_dir):
        argv = ["experiments", "--figures", "fig1", "--scale", "tiny",
                "--cache-dir", cache_dir]
        code, want_out, _ = run_cli(capsys, argv)
        assert code == 0
        monkeypatch.setitem(
            exps.PLANS, "fig1",
            lambda scale: exps.fig1_plan(scale)._replace(
                claims=lambda result: ["MCDRAM no faster than DDR4"]))
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == want_out
        assert [line for line in err.splitlines()
                if "claim failed" in line] == [
            "Fig1: claim failed: MCDRAM no faster than DDR4"]


class TestCacheCommand:
    def test_stats_then_clear(self, capsys, cache_dir):
        run_cli(capsys, ["experiments", "--figures", "fig1",
                         "--cache-dir", cache_dir])
        code, out, _ = run_cli(capsys,
                               ["cache", "stats", "--cache-dir", cache_dir])
        assert code == 0
        assert "cache root" in out and "(current)" in out
        code, out, _ = run_cli(capsys,
                               ["cache", "clear", "--cache-dir", cache_dir])
        assert code == 0
        assert "removed" in out
        code, out, _ = run_cli(capsys,
                               ["cache", "stats", "--cache-dir", cache_dir])
        assert "total      : 0 entries" in out


class TestRaceParallel:
    ARGS = ["race", "--app", "stencil", "--explore-schedules", "2",
            "--cores", "4", "--mcdram", "64MiB", "--ddr", "256MiB",
            "--total", "64MiB", "--block", "16MiB", "--iterations", "1"]

    def test_parallel_exploration_matches_serial(self, capsys):
        code_s, out_s, _ = run_cli(capsys, self.ARGS)
        code_p, out_p, _ = run_cli(capsys, self.ARGS + ["-j", "2"])
        assert code_p == code_s
        assert out_p == out_s
        assert "explored 2 schedule(s)" in out_p
