"""CLI tests for `repro race`, the `--race` flag on the app commands and
the REP2xx model checker behind `repro lint --select REP2`."""

import os

from repro.cli import main
from repro import hooks as probe
from tests.test_race_model_checker import DEFAULT_TARGETS

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "racy_strategy.py")
SMALL = ["--cores", "8", "--mcdram", "64MiB", "--ddr", "1GiB",
         "--total", "128MiB", "--block", "16MiB", "--iterations", "1"]


class TestStaticMode:
    """The placement model checker runs as ``repro lint --select REP2``."""

    def test_default_targets_check_clean(self, capsys):
        assert main(["lint", "--strict", "--select", "REP2",
                     *DEFAULT_TARGETS]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_fixture_exits_nonzero_with_all_rules(self, capsys):
        assert main(["lint", "--strict", "--select", "REP2", FIXTURE]) == 1
        out = capsys.readouterr().out
        for rule in ("REP200", "REP201", "REP202", "REP203",
                     "REP204", "REP205"):
            assert rule in out
        assert f"{FIXTURE}:" in out

    def test_missing_target_exits_two(self, capsys):
        assert main(["lint", "--strict", "--select", "REP2",
                     "/no/such/path.py"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "/no/such/path.py" in err


class TestDynamicMode:
    def test_fifo_run_under_racesan_is_clean(self, capsys):
        assert main(["race", "--app", "stencil", *SMALL]) == 0
        assert "ok" in capsys.readouterr().out
        assert probe.on_scheduled is None  # unsubscribed after the run
        assert probe.on_retain is None

    def test_explore_schedules_clean(self, capsys):
        assert main(["race", "--app", "stencil",
                     "--explore-schedules", "2", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "explored 2 schedule(s): 0 failing" in out


class TestAppFlags:
    def test_stencil_race_flag_clean_run(self, capsys):
        assert main(["stencil", "--race", "--strategy", "multi-io",
                     *SMALL]) == 0
        out = capsys.readouterr().out
        assert "racesan: 0 finding(s)" in out
        assert "total time" in out  # the normal run still happened
        assert probe.on_scheduled is None
        assert probe.on_retain is None

    def test_stencil_explore_flag_short_circuits(self, capsys):
        assert main(["race", "--app", "stencil", "--explore-schedules", "2",
                     "--seed", "5", "--strategy", "multi-io", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "explored 2 schedule(s)" in out
        assert "seed=5: ok" in out and "seed=6: ok" in out
        assert "seed=None" not in out  # exploration replaces the FIFO run

    def test_matmul_seed_replays_one_schedule(self, capsys):
        assert main(["race", "--app", "matmul", "--seed", "3",
                     "--strategy", "multi-io",
                     "--cores", "8", "--mcdram", "64MiB", "--ddr", "1GiB",
                     "--working-set", "64MiB", "--block-dim", "64"]) == 0
        assert capsys.readouterr().out.startswith("seed=3: ok")
