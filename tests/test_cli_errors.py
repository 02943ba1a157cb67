"""Bad CLI values: one line on stderr naming the value, exit status 2.

Sizes are parsed by argparse ``type=`` converters (a usage error);
counts are validated by the app configs (under ``race``,
``--explore-schedules`` and ``--seed`` before any schedule runs),
replicate, job and schedule counts, the replay ``--limit``, figure/app
names, ``lint``/``guide`` targets, the trend history path, the metrics
interval and every output path (``--trace-out``, ``guide -o``,
``trend``/``report``/``leaderboard -o``: its directory must exist and
it must not be one) by the commands, and a task larger than the whole
HBM budget or a working set larger than the device it is placed on by
the OOC manager, all raising a ``ConfigError`` the CLI catches once in
``main``.
Neither path may end in a traceback.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

#: an output path that exists and is a directory
A_DIR = str(Path(__file__).resolve().parent)

CASES = [
    # (case id, argv, the bad value the message must name)
    ("stencil-size", ["stencil", "--total", "banana"], "banana"),
    ("stencil-count", ["stencil", "--iterations", "-1"], "-1"),
    ("matmul-size", ["matmul", "--working-set", "banana"], "banana"),
    ("matmul-count", ["matmul", "--block-dim", "0"], "0"),
    ("spmv-size", ["spmv", "--block-bytes", "12 parsecs"], "12 parsecs"),
    ("spmv-count", ["spmv", "--block-rows", "0"], "0"),
    # one task's blocks exceed the whole HBM budget: no schedule can run it
    ("stencil-task-over-hbm", ["stencil", "--mcdram", "1KiB"], "1024B"),
    ("matmul-task-over-hbm", ["matmul", "--mcdram", "1KiB"], "1024B"),
    ("spmv-task-over-hbm", ["spmv", "--mcdram", "1KiB"], "1024B"),
    # a working set larger than the device its strategy places it on
    ("stencil-ddr-too-small", ["stencil", "--ddr", "1MiB"],
     "ddr4 to hold 2.00GiB but it holds 1.00MiB"),
    ("stencil-hbm-only-too-small",
     ["stencil", "--strategy", "hbm-only", "--mcdram", "64MiB"],
     "mcdram to hold 2.00GiB but it holds 64.00MiB"),
    ("metrics-ddr-too-small", ["metrics", "--app", "stream", "--ddr", "1MiB"],
     "ddr4 to hold 768.00MiB but it holds 1.00MiB"),
    # `repro stream` itself takes no size; its app's size lives on metrics
    ("stream-size", ["metrics", "--app", "stream", "--array", "lots"],
     "lots"),
    ("stream-count", ["stream", "--threads", "0"], "0"),
    ("report-replicates",
     ["report", "--figures", "fig2", "--replicates", "0"], "0"),
    ("leaderboard-replicates", ["leaderboard", "--replicates", "0"], "0"),
    ("experiments-figure", ["experiments", "--figures", "fig99"], "fig99"),
    ("report-figure", ["report", "--figures", "fig99"], "fig99"),
    ("leaderboard-app", ["leaderboard", "--apps", "nope"], "nope"),
    ("race-schedules", ["race", "--explore-schedules", "-1"], "-1"),
    # a bad app shape fails once, before any schedule runs
    ("race-shape",
     ["race", "--app", "stencil", "--iterations", "0",
      "--explore-schedules", "2"], "0"),
    ("race-shape-jobs",
     ["race", "--app", "spmv", "--block-rows", "0",
      "--explore-schedules", "2", "-j", "2"], "0"),
    ("race-shape-fifo", ["race", "--app", "matmul", "--working-set", "0"],
     "0"),
    ("matmul-shape-seed",
     ["race", "--app", "matmul", "--block-dim", "0", "--seed", "1"], "0"),
    ("spmv-shape-seed",
     ["race", "--app", "spmv", "--block-rows", "4", "--couplings", "99",
      "--seed", "1"], "99"),
    ("race-limit", ["race", "--seed", "1", "--limit", "-1"], "-1"),
    ("race-limit-no-seed", ["race", "--limit", "5"], "--limit 5"),
    ("experiments-jobs", ["experiments", "--figures", "fig1", "-j", "0"],
     "0"),
    ("report-jobs", ["report", "--figures", "fig2", "-j", "-1"], "-1"),
    ("leaderboard-jobs", ["leaderboard", "-j", "0"], "0"),
    ("trend-history",
     ["trend", "render", "--history", "no-such-history.jsonl"],
     "no-such-history.jsonl"),
    # a commit is recorded once: no made-up default id for it
    ("trend-append-commit", ["trend", "append"], "--commit"),
    ("stencil-metrics-interval",
     ["stencil", "--metrics", "--metrics-interval", "0"], "0"),
    ("metrics-interval",
     ["metrics", "--app", "stencil", "--metrics-interval", "-0.5"], "-0.5"),
    # `repro metrics` has no checker or schedule mode: those flags are
    # unknown there rather than silently ignored
    ("metrics-sanitize", ["metrics", "--sanitize"], "--sanitize"),
    ("metrics-race", ["metrics", "--race"], "--race"),
    ("metrics-explore-schedules",
     ["metrics", "--explore-schedules", "2"], "--explore-schedules"),
    ("metrics-seed", ["metrics", "--seed", "1"], "--seed"),
    ("metrics-limit", ["metrics", "--limit", "1"], "--limit"),
    # the schedule flags live on `repro race` only; the app commands
    # reject them rather than silently dropping their observer flags
    ("stencil-schedules", ["stencil", "--explore-schedules", "-2"],
     "--explore-schedules"),
    ("stencil-shape-schedules",
     ["stencil", "--iterations", "0", "--explore-schedules", "2"],
     "--explore-schedules"),
    ("stencil-seed", ["stencil", "--seed", "5"], "--seed"),
    ("stencil-limit-no-seed", ["stencil", "--limit", "3"], "--limit"),
    ("matmul-schedules", ["matmul", "--explore-schedules", "2"],
     "--explore-schedules"),
    ("matmul-seed", ["matmul", "--seed", "3"], "--seed"),
    ("matmul-limit", ["matmul", "--limit", "1"], "--limit"),
    ("spmv-schedules", ["spmv", "--explore-schedules", "2"],
     "--explore-schedules"),
    ("spmv-seed", ["spmv", "--seed", "1"], "--seed"),
    ("spmv-limit", ["spmv", "--limit", "1"], "--limit"),
    ("stencil-trace-out",
     ["stencil", "--trace-out", "no-such-dir/t.json"], "no-such-dir/t.json"),
    ("matmul-trace-out",
     ["matmul", "--trace-out", "no-such-dir/m.json"], "no-such-dir/m.json"),
    ("guide-output",
     ["guide", "-o", "no-such-dir/x.json"], "no-such-dir/x.json"),
    # a prefix no rule id starts with would filter every finding away;
    # --select takes one prefix, so it may come before the targets too
    ("lint-select", ["lint", "repro.apps", "--select", "BOGUS"], "BOGUS"),
    ("lint-select-first", ["lint", "--select", "BOGUS", "repro.apps"],
     "BOGUS"),
    # a lint run needs a target, and every target must exist
    ("lint-no-targets", ["lint"], "no targets"),
    ("lint-target", ["lint", "no.such.module.anywhere"],
     "no.such.module.anywhere"),
    ("guide-target", ["guide", "no.such.module.anywhere"],
     "no.such.module.anywhere"),
    ("guide-phases-target", ["guide", "--phases", "no/such/dir"],
     "no/such/dir"),
    ("trend-out", ["trend", "render", "-o", "no-such-dir/t.html"],
     "no-such-dir/t.html"),
    ("report-out", ["report", "--figures", "fig2", "-o", "no-such-dir/r.html"],
     "no-such-dir/r.html"),
    ("leaderboard-out", ["leaderboard", "-o", "no-such-dir/l.html"],
     "no-such-dir/l.html"),
    # an output path that is an existing directory fails before the run
    ("stencil-trace-out-dir", ["stencil", "--trace-out", A_DIR], A_DIR),
    ("matmul-trace-out-dir", ["matmul", "--trace-out", A_DIR], A_DIR),
    ("guide-output-dir", ["guide", "-o", A_DIR], A_DIR),
    ("trend-out-dir", ["trend", "render", "-o", A_DIR], A_DIR),
    ("report-out-dir", ["report", "--figures", "fig2", "-o", A_DIR], A_DIR),
    ("leaderboard-out-dir", ["leaderboard", "-o", A_DIR], A_DIR),
]


@pytest.mark.parametrize("argv,value", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_value_is_one_line_and_exit_2(argv, value, capsys) -> None:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("repro")
    assert "error: " in lines[0]
    assert value in lines[0]


#: the lint fixture has REP1xx findings and no REP3xx ones
LINT_FIXTURE = str(Path(__file__).resolve().parent / "fixtures"
                   / "lint_bad_chare.py")


@pytest.mark.parametrize("argv,code", [
    (["lint", LINT_FIXTURE, "--select", "REP3"], 0),
    (["lint", "--select", "REP3", LINT_FIXTURE], 0),
    (["lint", LINT_FIXTURE, "--select", "REP1"], 1),
    (["lint", "--select", "REP1", LINT_FIXTURE], 1),
], ids=["rep3-targets-first", "rep3-select-first", "rep1-targets-first",
        "rep1-select-first"])
def test_lint_select_before_or_after_targets(argv, code, capsys) -> None:
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert ("REP102" in out) == (code == 1)
