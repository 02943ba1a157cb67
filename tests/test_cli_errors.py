"""Bad CLI values: one line on stderr naming the value, exit status 2.

Sizes are parsed by argparse ``type=`` converters (a usage error);
counts are validated by the app configs, whose ``ConfigError`` the CLI
catches once in ``main``.  Neither path may end in a traceback.
"""

from __future__ import annotations

import pytest

from repro.cli import main

CASES = [
    # (case id, argv, the bad value the message must name)
    ("stencil-size", ["stencil", "--total", "banana"], "banana"),
    ("stencil-count", ["stencil", "--iterations", "-1"], "-1"),
    ("matmul-size", ["matmul", "--working-set", "banana"], "banana"),
    ("matmul-count", ["matmul", "--block-dim", "0"], "0"),
    ("spmv-size", ["spmv", "--block-bytes", "12 parsecs"], "12 parsecs"),
    ("spmv-count", ["spmv", "--block-rows", "0"], "0"),
    # `repro stream` itself takes no size; its app's size lives on metrics
    ("stream-size", ["metrics", "--app", "stream", "--array", "lots"],
     "lots"),
    ("stream-count", ["stream", "--threads", "0"], "0"),
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
