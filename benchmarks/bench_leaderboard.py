"""Leaderboard sweep wall-clock guard (``BENCH_leaderboard.json``).

``repro leaderboard`` is the PR's cash-in surface: the kernelized sim
core + solver memo are what make an 8-strategy × 4-app replicated sweep
cheap enough to run casually.  This bench runs the full square at
``Scale.TINY`` (one replicate, serial, uncached — every cell is a real
simulation) and guards the wall clock with a ceiling, so a regression
in the event core or the solver shows up here as a slow sweep even if
the per-scenario floors in ``bench_simcore`` drift.

Records ``BENCH_leaderboard.json`` with the sweep wall time and cell
throughput; ``leaderboard.tiny_sweep.cells_per_s`` feeds the
``repro trend`` dashboard.  The pytest entry records under pytest's
``tmp_path``; run this file as a script to refresh the tracked
snapshot::

    PYTHONPATH=src python benchmarks/bench_leaderboard.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.bench.harness import Scale
from repro.bench.leaderboard import leaderboard_plans, rank_figures
from repro.bench.regression import write_bench
from repro.exec import run_specs
from repro.obs.report import assemble_sweep, replicate_specs

#: generous ceiling for 32 tiny cells on one noisy core — the sweep
#: takes ~2s here; tripping this means an order-of-magnitude regression
WALL_CEILING_S = 20.0
REPLICATES = 1


def run_bench(directory: Path | None = None) -> Path:
    """Assert the sweep ceiling; write BENCH_leaderboard.json.

    ``directory`` defaults to the repository root (the tracked snapshot).
    """
    plans = leaderboard_plans(Scale.TINY, iterations=2)
    specs = replicate_specs(plans, REPLICATES)
    t0 = time.perf_counter()
    results = run_specs(specs, jobs=1, cache=None)
    wall = time.perf_counter() - t0
    assert all(r.ok for r in results), [r.error for r in results]

    figures = assemble_sweep(plans, REPLICATES,
                             [r.result for r in results])
    summary = rank_figures(figures)
    scores = {label: row["slowdown"].mean
              for label, row in summary.stats.items()}
    # sanity on the fold, not on strategy quality: slowdown is measured
    # against the per-app best, so nothing can score below 1x, and the
    # DDR-only placement can never win a bandwidth-bound leaderboard
    assert all(score >= 1.0 - 1e-12 for score in scores.values()), scores
    assert next(iter(summary.stats)) != "ddr-only", scores

    cells = len(specs)
    print(f"\nleaderboard: {cells} cells in {wall * 1e3:.0f}ms "
          f"({cells / wall:.1f} cells/s); "
          f"worst geomean {max(scores.values()):.2f}x ({max(scores, key=scores.get)})")
    assert wall <= WALL_CEILING_S, (
        f"tiny leaderboard sweep took {wall:.1f}s "
        f"(ceiling {WALL_CEILING_S}s) — sim core or solver regression?")

    return write_bench("leaderboard", {
        "tiny_sweep": {
            "cells": float(cells),
            "wall_s": wall,
            "cells_per_s": cells / wall,
            "worst_geomean_x": max(scores.values()),
        },
    }, directory=directory)


def test_leaderboard_sweep_under_ceiling(tmp_path) -> None:
    run_bench(tmp_path)


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    print(f"wrote {run_bench()}")
