"""The four end-to-end workloads: which figure-plan runs each one executes.

A workload is a list of :class:`~repro.bench.harness.FigurePlan` built
from the public plan factories.  Its runs are the plans' specs, deduped
by content key and kept in first-seen order; the plans' ``assemble``
functions fold the results back into the figure tables whose digests
``golden.json`` records.

Sizes are cut from the figures' defaults so that one round takes a few
seconds: a run of the benchmark repeats rounds in fresh processes and
reports medians, and many short rounds are steadier than a few long ones.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.bench.experiments import fig5_plan, fig6_plan, fig8_plan, fig9_plan
from repro.bench.harness import FigurePlan, Scale
from repro.bench.leaderboard import leaderboard_plans
from repro.exec.spec import RunSpec

#: seeds map onto this many input variants, each with its own goldens
VARIANTS = 16


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: variant -> the figure plans whose runs make up one round
    plans: _t.Callable[[int], "list[FigurePlan]"]
    #: whether the inputs depend on the seed at all
    seeded: bool = False
    #: install SpanTracer + MetricsSession around every run
    observed: bool = False

    def variant(self, seed: int) -> int:
        return seed % VARIANTS if self.seeded else 0


def _replicated(plans: "list[FigurePlan]", variant: int) -> "list[FigurePlan]":
    """Tie-breaker replicate ``1 + variant``; the SpMV matrix seed is ``variant``."""
    out = []
    for plan in plans:
        specs = [RunSpec(s.kind,
                         {**s.params, "replicate": 1 + variant,
                          **({"seed": variant} if s.kind == "spmv" else {})},
                         s.cost, s.label)
                 for s in plan.specs]
        out.append(plan._replace(specs=specs))
    return out


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig8-stencil",
        "Fig 8 stencil, 3 working sets x 5 strategies: every layer does real "
        "work, with eviction under HBM overflow",
        lambda v: [fig8_plan(Scale.SMALL, iterations=2)]),
    Workload(
        "fig9-matmul",
        "Fig 9 matmul: thousands of queued tasks on shared read-only panels "
        "make strategy bookkeeping (missing_bytes, LRU victim scans) dominate",
        lambda v: [fig9_plan(Scale.TINY, total_ws_gb=(24,), block_dim=192)]),
    Workload(
        "fits-hbm-replicated",
        "Leaderboard, 8 strategies x 4 apps fitting in HBM under seeded "
        "tie-breakers: eviction bypassed, many small solves",
        lambda v: _replicated(leaderboard_plans(Scale.TINY), v),
        seeded=True),
    Workload(
        "observed-stencil",
        "Fig 5+6 traced stencil runs with span tracer and metrics session "
        "on: the only workload where observers do work",
        lambda v: [fig5_plan(Scale.SMALL), fig6_plan(Scale.SMALL)],
        observed=True),
)}


def unique_specs(plans: _t.Sequence[FigurePlan]) -> "list[RunSpec]":
    """The plans' runs, deduped by content key, in first-seen order."""
    seen: dict[str, RunSpec] = {}
    for plan in plans:
        for spec in plan.specs:
            seen.setdefault(spec.key(), spec)
    return list(seen.values())
