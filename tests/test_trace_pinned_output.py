"""Pinned ``repro stencil`` trace output: stdout and the Chrome trace file.

The Projections intervals and the causal spans both reach the user
through ``repro stencil --trace-out`` (with and without ``--spans``):
the occupancy line, the critical-path report and the merged trace.
These digests pin that output at one small out-of-core shape, so a
change to how the intervals are recorded cannot move a byte of it.
Each run is a subprocess because task ids come from a process-wide
counter.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: HBM holds half the grid, so the run fetches and evicts every iteration
SHAPE = ["stencil", "--strategy", "multi-io", "--cores", "4",
         "--mcdram", "64MiB", "--ddr", "1GiB", "--total", "128MiB",
         "--block", "16MiB", "--iterations", "2"]

#: flags -> (sha256 of stdout, sha256 of the trace file)
PINNED = {
    "--spans": (
        "94b7c20c18637a757ead8e1525575bfa461691cd64a69b6b6e82c605048237be",
        "7798a508dae52a91efab7cf3a226c686784fbcd0a91614d604ecd9f877a710c6"),
    "": (
        "d6d829245db04e2d16da2dc02917258692675ded68716eac7e2e1f299462188f",
        "504d695cf21cf0e688c29e8c638b4bc0c7175a56d94367e8291c83346aae35fc"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags", sorted(PINNED), ids=lambda f: f or "plain")
def test_stencil_trace_output_is_pinned(flags, tmp_path):
    trace = tmp_path / "trace.json"
    argv = [sys.executable, "-m", "repro.cli", *SHAPE,
            *flags.split(), "--trace-out", str(trace)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=240)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert (_sha256(proc.stdout), _sha256(trace.read_bytes())) == \
        PINNED[flags], proc.stdout.decode()
