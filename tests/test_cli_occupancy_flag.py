"""CLI shows the occupancy sparkline for traced runs."""

from repro.cli import main


def test_stencil_cli_runs_with_small_config(capsys):
    code = main(["stencil", "--strategy", "multi-io", "--cores", "8",
                 "--mcdram", "128MiB", "--ddr", "1GiB",
                 "--total", "256MiB", "--block", "8MiB",
                 "--iterations", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "hbm occupancy" in out
    assert "peak=" in out
