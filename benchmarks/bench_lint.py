"""bwlint performance + cleanliness guard (``BENCH_lint.json``).

Two things are on the hook here:

* **Wall-clock** — ``repro lint`` runs in CI on every push, so the full
  static pass (REP1xx + model checker + the REP3xx dataflow/traffic
  analysis) over the whole tree must stay interactive.  The analysis is
  pure AST walking with memoized config-field evaluation; the ceilings
  below carry ~10x headroom over the measured ~0.9s / ~0.1s so only a
  complexity regression (e.g. an accidentally quadratic fixpoint) trips
  them, not machine noise.
* **Zero false positives** — the REP300-306 acceptance bar.  A findings
  count > 0 on the repo's own sources is a rule regression, caught here
  with the offending renders in the assertion message.

The recorded trajectory (wall times, file/site counts, guidance
identity) lands in ``BENCH_lint.json``.  The pytest entry records under
pytest's ``tmp_path``; run this file as a script to refresh the tracked
snapshot::

    PYTHONPATH=src python benchmarks/bench_lint.py
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.regression import best_wall_time, write_bench
from repro.lint.guidance import build_guidance
from repro.lint.static_checker import check_paths, iter_python_files

ROOT = Path(__file__).resolve().parents[1]
LINT_TARGETS = [ROOT / "src" / "repro", ROOT / "examples"]
APPS = ROOT / "src" / "repro" / "apps"

#: generous ceilings (measured ~0.9s and ~0.1s): complexity guards,
#: not machine benchmarks
FULL_LINT_CEILING_S = 10.0
GUIDANCE_CEILING_S = 2.0


def run_bench(directory: Path | None = None) -> Path:
    """Assert wall ceilings and zero findings; write BENCH_lint.json.

    ``directory`` defaults to the repository root (the tracked snapshot).
    """
    n_files = len(list(iter_python_files(LINT_TARGETS)))
    lint_wall, report = best_wall_time(
        lambda: check_paths(LINT_TARGETS), repeats=2)
    guide_wall, guidance = best_wall_time(
        lambda: build_guidance([APPS]), repeats=2)

    assert report.findings == [], [f.render() for f in report.findings]
    assert lint_wall < FULL_LINT_CEILING_S
    assert guide_wall < GUIDANCE_CEILING_S
    assert len(guidance.sites) > 0
    # the v2 phase pass (interprocedural summaries + segmentation) rides
    # inside build_guidance: its cost is inside GUIDANCE_CEILING_S, and
    # the apps tree must keep segmenting into a non-empty timeline
    phases = guidance.phase_table()
    assert phases, "apps tree produced no phase timeline"
    sites_with_interval = sum(
        1 for s in guidance.sites if guidance.first_phase(s) is not None)
    assert sites_with_interval > 0

    metrics = {
        "full_tree": {
            "wall_s": lint_wall,
            "files": n_files,
            "findings": len(report.findings),
            "files_per_s": n_files / lint_wall if lint_wall else 0.0,
        },
        "guidance_apps": {
            "wall_s": guide_wall,
            "sites": len(guidance.sites),
        },
        "phase_analysis": {
            "phases": len(phases),
            "sites_with_interval": sites_with_interval,
            "schema": guidance.schema,
        },
    }
    print(f"  full_tree: {n_files} files in {lint_wall*1e3:.0f}ms, "
          f"{len(report.findings)} findings")
    print(f"  guidance_apps: {len(guidance.sites)} sites in "
          f"{guide_wall*1e3:.0f}ms, identity {guidance.identity()[:12]}")
    return write_bench("lint", metrics, directory=directory)


def test_lint_regression(tmp_path) -> None:
    """Assert wall ceilings and zero findings; record under tmp_path."""
    run_bench(tmp_path)


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    print(f"wrote {run_bench()}")
