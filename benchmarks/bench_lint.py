"""bwlint performance + cleanliness guard (``BENCH_lint.json``).

Three things are on the hook here:

* **Wall-clock** — ``repro lint`` runs in CI on every push, so the full
  static pass (REP1xx + model checker + the REP3xx dataflow/traffic
  analysis) over the whole tree must stay interactive.  The analysis is
  pure AST walking with memoized config-field evaluation; the ceilings
  below sit 30x and more above the measured ~0.3s / ~0.02s so only a
  complexity regression (e.g. an accidentally quadratic fixpoint) trips
  them, not machine noise.
* **Node expansions** — the deterministic half of the same guard.  Every
  pass over a module reads one shared node index
  (:mod:`repro.lint.nodeindex`), so a run expands each parsed node at
  most once; a pass that re-walks a tree per query (a class per chare, a
  loop per kernel launch) multiplies that, whatever the host speed.
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

import ast
from pathlib import Path

from repro.bench.regression import best_wall_time, write_bench
from repro.lint.guidance import build_guidance
from repro.lint.static_checker import check_paths, iter_python_files

ROOT = Path(__file__).resolve().parents[1]
LINT_TARGETS = [ROOT / "src" / "repro", ROOT / "examples"]
APPS = ROOT / "src" / "repro" / "apps"

#: generous ceilings (measured ~0.3s and ~0.02s): complexity guards,
#: not machine benchmarks
FULL_LINT_CEILING_S = 10.0
GUIDANCE_CEILING_S = 2.0

#: ``ast.iter_child_nodes`` calls allowed per parsed node (the shared
#: index needs at most one; a walk per chare or per launch needs more)
MAX_EXPANSIONS_PER_NODE = 2.0


def expansions_per_node(run) -> float:
    """Node expansions per parsed node while ``run()`` executes.

    Counts the ``ast.iter_child_nodes`` calls (``ast.walk`` expands every
    node through it) against the nodes of each tree ``ast.parse``
    returns.
    """
    real_expand, real_parse = ast.iter_child_nodes, ast.parse
    counts = {"expanded": 0, "parsed": 0}

    def expand(node):
        counts["expanded"] += 1
        return real_expand(node)

    def parse(*args, **kwargs):
        tree = real_parse(*args, **kwargs)
        stack = [tree]
        while stack:
            counts["parsed"] += 1
            stack.extend(real_expand(stack.pop()))
        return tree

    ast.iter_child_nodes, ast.parse = expand, parse
    try:
        run()
    finally:
        ast.iter_child_nodes, ast.parse = real_expand, real_parse
    return counts["expanded"] / counts["parsed"]


def run_bench(directory: Path | None = None) -> Path:
    """Assert wall and expansion ceilings and zero findings; write
    BENCH_lint.json.

    ``directory`` defaults to the repository root (the tracked snapshot).
    """
    n_files = len(list(iter_python_files(LINT_TARGETS)))
    lint_wall, report = best_wall_time(
        lambda: check_paths(LINT_TARGETS), repeats=2)
    guide_wall, guidance = best_wall_time(
        lambda: build_guidance([APPS]), repeats=2)

    lint_expansions = expansions_per_node(lambda: check_paths(LINT_TARGETS))
    guide_expansions = expansions_per_node(lambda: build_guidance([APPS]))

    assert report.findings == [], [f.render() for f in report.findings]
    assert lint_wall < FULL_LINT_CEILING_S
    assert guide_wall < GUIDANCE_CEILING_S
    assert lint_expansions <= MAX_EXPANSIONS_PER_NODE, lint_expansions
    assert guide_expansions <= MAX_EXPANSIONS_PER_NODE, guide_expansions
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
            "expansions_per_node": lint_expansions,
            "files": n_files,
            "findings": len(report.findings),
            "files_per_s": n_files / lint_wall if lint_wall else 0.0,
        },
        "guidance_apps": {
            "wall_s": guide_wall,
            "expansions_per_node": guide_expansions,
            "sites": len(guidance.sites),
        },
        "phase_analysis": {
            "phases": len(phases),
            "sites_with_interval": sites_with_interval,
        },
    }
    print(f"  full_tree: {n_files} files in {lint_wall*1e3:.0f}ms, "
          f"{len(report.findings)} findings, "
          f"{lint_expansions:.2f} expansions/node")
    print(f"  guidance_apps: {len(guidance.sites)} sites in "
          f"{guide_wall*1e3:.0f}ms, identity {guidance.identity()[:12]}, "
          f"{guide_expansions:.2f} expansions/node")
    return write_bench("lint", metrics, directory=directory)


def test_lint_regression(tmp_path) -> None:
    """Assert wall and expansion ceilings and zero findings; record under
    tmp_path."""
    run_bench(tmp_path)


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    print(f"wrote {run_bench()}")
