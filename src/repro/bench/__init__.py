"""Benchmark harness: experiment definitions for every paper table/figure.

Each figure is a :class:`~repro.bench.harness.FigurePlan` in
:mod:`repro.bench.experiments` (``PLANS``): its simulation runs, how
they fold into an :class:`ExperimentResult`, and the paper's shape
claims about that result, which ``repro experiments`` checks.
:mod:`repro.bench.report` renders results as the rows the paper plots.
"""

from repro.bench.harness import (
    ExperimentResult,
    Scale,
    speedup_table,
)
from repro.bench.report import format_table, render_experiment
from repro.bench.regression import (
    best_wall_time,
    write_bench,
)

__all__ = [
    "ExperimentResult", "Scale", "speedup_table",
    "format_table", "render_experiment",
    "best_wall_time", "write_bench",
]
