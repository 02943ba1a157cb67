"""Perf-regression recording: ``BENCH_<name>.json`` files.

The ROADMAP wants every PR to leave a wall-clock trajectory behind, not
just correctness green.  The convention is small and tool-agnostic:

* a benchmark module (e.g. ``benchmarks/bench_simcore.py``) measures a
  handful of named scenarios and calls :func:`write_bench` with a flat
  ``{scenario: {metric: value}}`` mapping;
* the result is written to ``BENCH_<name>.json`` at the repository root
  (next to ``pyproject.toml``), committed alongside the change;
* the next change re-runs the benchmark and compares against the
  committed numbers (``repro trend`` folds them into a history).

File format (one JSON object)::

    {
      "bench": "simcore",
      "schema": 1,
      "created": "2026-08-06T12:00:00+00:00",
      "python": "3.12.3",
      "metrics": {
        "contention_64pe": {"wall_s": 0.015, "solves": 7,
                             "memo_hits": 21, ...},
        ...
      }
    }

Wall-clock numbers are machine-dependent; *ratios* (speedups, operation
counts) are the comparable part, which is why scenarios should record both.
"""

from __future__ import annotations

import datetime as _dt
import json
import platform
import time
import typing as _t
from pathlib import Path

__all__ = ["repo_root", "bench_path", "write_bench", "best_wall_time"]

#: bump when the file layout changes incompatibly
SCHEMA_VERSION = 1


def repo_root(start: "Path | None" = None) -> Path:
    """The repository root: nearest ancestor holding ``pyproject.toml``."""
    here = (start or Path(__file__)).resolve()
    for candidate in [here, *here.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    # Fallback for installed trees: current working directory.
    return Path.cwd()


def bench_path(name: str, directory: "Path | None" = None) -> Path:
    """Where ``BENCH_<name>.json`` lives."""
    base = directory if directory is not None else repo_root()
    return base / f"BENCH_{name}.json"


def write_bench(name: str, metrics: _t.Mapping[str, _t.Mapping[str, float]],
                *, directory: "Path | None" = None,
                metrics_digest: _t.Mapping[str, float] | None = None) -> Path:
    """Record one benchmark run; returns the path written.

    ``metrics_digest`` — typically :func:`repro.metrics.export.digest` of
    the run's registry — rides along under its own key, so the perf
    trajectory carries bandwidth/latency context (bytes moved, fetch
    p95s), not just wall-time.
    """
    path = bench_path(name, directory)
    payload = {
        "bench": name,
        "schema": SCHEMA_VERSION,
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"),
        "python": platform.python_version(),
        "metrics": {scenario: dict(values)
                    for scenario, values in metrics.items()},
    }
    if metrics_digest is not None:
        payload["metrics_digest"] = dict(metrics_digest)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def best_wall_time(fn: _t.Callable[[], _t.Any], *, repeats: int = 3
                   ) -> tuple[float, _t.Any]:
    """Best-of-``repeats`` wall time of ``fn()`` and its (last) result.

    Best-of mirrors STREAM/timeit convention: the minimum is the least
    noise-contaminated estimate of the true cost.
    """
    best = float("inf")
    result: _t.Any = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result
