"""Shared experiment plumbing.

Experiments run at a configurable :class:`Scale`.  The paper's testbed
moves tens of GB per run; simulating that at full size is exact but slow in
CI, so capacities *and* working sets shrink together — every ratio the
results depend on (WS : HBM : DDR capacity, bandwidth ratios, per-task
arithmetic intensity) is scale-invariant.  ``Scale.FULL`` reproduces the
paper's literal sizes.

Each figure is a :class:`FigurePlan`: a list of declarative
:class:`~repro.exec.spec.RunSpec` simulation runs plus an ``assemble``
function that folds their result dicts into an
:class:`ExperimentResult`.  :func:`run_plan` executes one plan
serially; ``repro experiments`` instead hands every plan's specs to
:func:`~repro.exec.engine.run_specs`, which fans them out over a
process pool with content-addressed caching.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.units import GiB

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.spec import RunSpec

__all__ = ["Scale", "ExperimentResult", "FigurePlan", "run_plan",
           "speedup_table"]


class Scale(enum.Enum):
    """Capacity scale factor for experiment runs."""

    #: 1/32 of the paper's sizes — for chare-heavy workloads (MatMul)
    TINY = 32
    #: 1/16 of the paper's sizes — seconds per run; the CI default
    SMALL = 16
    #: 1/4 of the paper's sizes
    MEDIUM = 4
    #: the paper's literal sizes
    FULL = 1

    @property
    def factor(self) -> int:
        return self.value

    def size(self, full_bytes: float) -> int:
        """Scale a paper-quoted size down to this run scale."""
        return int(full_bytes / self.value)

    @property
    def mcdram(self) -> int:
        return self.size(16 * GiB)

    @property
    def ddr(self) -> int:
        return self.size(96 * GiB)


@dataclasses.dataclass
class ExperimentResult:
    """One experiment's regenerated data, paper-comparable."""

    figure: str
    description: str
    #: x-axis label -> series label -> value
    series: dict[str, dict[str, float]]
    #: unit of the values ("speedup", "GB/s", "s", ...)
    unit: str
    #: free-form extras (overheads, counters) for EXPERIMENTS.md
    notes: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def series_names(self) -> list[str]:
        names: list[str] = []
        for row in self.series.values():
            for name in row:
                if name not in names:
                    names.append(name)
        return names


def _no_claims(result: ExperimentResult) -> list[str]:
    return []


class FigurePlan(_t.NamedTuple):
    """One figure as data: its runs, and how to fold them into a result.

    ``specs`` enumerates every simulation run the figure needs;
    ``assemble`` receives the runs' result dicts *in spec order* and
    builds the :class:`ExperimentResult`.  Keeping enumeration separate
    from assembly is what lets the exec engine batch, dedup, cache and
    parallelize runs across figures without changing any figure's
    output.  ``claims`` lists the paper's claims the result breaks.
    """

    figure: str
    specs: "list[RunSpec]"
    assemble: _t.Callable[[_t.Sequence[_t.Mapping[str, _t.Any]]],
                          ExperimentResult]
    claims: _t.Callable[[ExperimentResult], list[str]] = _no_claims


def run_plan(plan: FigurePlan) -> ExperimentResult:
    """Execute a plan serially and assemble its result.

    Raises :class:`~repro.errors.ExperimentError` naming every failed
    spec — assembly needs all values, so a partial figure is an error,
    not a NaN.
    """
    from repro.errors import ExperimentError
    from repro.exec.engine import run_specs

    results = run_specs(plan.specs)
    failed = [r for r in results if not r.ok]
    if failed:
        lines = [f"{r.spec.display()}: {r.error}" for r in failed]
        raise ExperimentError(
            f"{len(failed)} of {len(results)} runs failed:\n  "
            + "\n  ".join(lines))
    return plan.assemble([_t.cast(dict, r.result) for r in results])


def speedup_table(times: _t.Mapping[str, _t.Mapping[str, float]],
                  baseline: str = "naive") -> dict[str, dict[str, float]]:
    """Convert absolute times into the paper's speedup-vs-baseline rows."""
    out: dict[str, dict[str, float]] = {}
    for x_label, by_strategy in times.items():
        base = by_strategy[baseline]
        out[x_label] = {name: base / t if t > 0 else float("inf")
                        for name, t in by_strategy.items()}
    return out
