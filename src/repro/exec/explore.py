"""Parallel seed exploration for ``repro race --explore-schedules``.

Each seeded schedule permutation is a pure function of its
``(app, machine, shape, seed)`` tuple, so exploration is embarrassingly
parallel: every seed becomes a ``schedule`` :class:`RunSpec`, the
engine fans them out, and the outcomes merge back **in seed order** —
the report is line-for-line identical to a serial
:func:`repro.race.explorer.explore` sweep over the same seeds.

Minimization of the first failing seed stays serial and local (it is a
binary search — inherently sequential) on the app's
:func:`~repro.race.explorer.app_runner`, so the replay token and its
findings come from real :class:`~repro.race.explorer.ScheduleOutcome`
objects.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.exec.engine import Engine, RunResult
from repro.exec.spec import RunSpec

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.race.explorer import ScheduleOutcome

__all__ = ["ParallelExplorationReport", "parallel_explore"]


@dataclasses.dataclass
class ParallelExplorationReport:
    """Aggregate of one parallel sweep, render-compatible with serial.

    ``outcomes`` holds the worker-side outcome dicts (seed order);
    ``minimized`` is a locally re-run real outcome when a failure was
    minimized.
    """

    outcomes: list[dict]
    minimized: "ScheduleOutcome | None" = None

    @property
    def failing(self) -> list[dict]:
        """Outcome rows whose schedule crashed, raced or violated."""
        return [o for o in self.outcomes if o["failed"]]

    @property
    def ok(self) -> bool:
        """True when every explored schedule was clean."""
        return not self.failing

    def render(self) -> str:
        """The serial explorer's report format, one line per schedule."""
        from repro.race.explorer import render_report

        return render_report([o["rendered"] for o in self.outcomes],
                             len(self.failing), self.minimized)


def parallel_explore(app: str, app_params: _t.Mapping[str, _t.Any], *,
                     schedules: int, base_seed: int,
                     jobs: int) -> ParallelExplorationReport:
    """Explore ``schedules`` seeds in parallel; minimize the first failure.

    Every seed in ``[base_seed, base_seed + schedules)`` is one
    ``schedule`` spec carrying the app run's params mapping
    (:mod:`repro.exec.apps`) whole under ``"params"``.  A spec whose
    worker crashed outright (engine-level error, not a schedule verdict)
    is reported as a failed outcome with the error in its rendered line.
    """
    from repro.race.explorer import app_runner, minimize_schedule, run_schedule

    specs = [RunSpec("schedule",
                     {"app": app, "seed": seed, "params": dict(app_params)},
                     label=f"schedule/{app}/seed{seed}")
             for seed in range(base_seed, base_seed + schedules)]
    results = Engine(jobs=jobs).run(specs)
    report = ParallelExplorationReport(
        outcomes=[_as_outcome_dict(spec, result)
                  for spec, result in zip(specs, results)])
    if report.failing:
        runner = app_runner(app, app_params)
        local = run_schedule(runner, int(report.failing[0]["seed"]))
        if local.failed:
            report.minimized = minimize_schedule(runner, local)
    return report


def _as_outcome_dict(spec: RunSpec, result: RunResult) -> dict:
    if result.ok and result.result is not None:
        return result.result
    seed = spec.params["seed"]
    return {"seed": seed, "failed": True,
            "rendered": f"seed={seed}: FAIL error=worker-error — "
                        f"{result.error}"}
