"""Projections-style tracing and timeline analysis.

The paper uses Projections (the Charm++ performance visualiser) to show
where PEs spend their time — Figure 5 (wait time under single vs multiple
IO threads) and Figure 6 (synchronous fetch overhead vs asynchronous).
This package records the same information from the simulation: typed,
per-PE time intervals, aggregated into utilisation/wait breakdowns, ASCII
usage bars, and JSON export.

:class:`Tracer` is a run's one recorder, a subscriber of the probe
(:mod:`repro.hooks`); spans (:class:`repro.obs.SpanTracer`) and metrics
(:class:`repro.metrics.MetricsSession`) hold the same one.  The code
that reads the log installs a tracer for one run and uninstalls it in a
``finally``::

    tracer = Tracer(built.env).install()
    try:
        Stencil3D(built, cfg).run()
    finally:
        tracer.uninstall()
    report = build_report(tracer)
"""

from repro.trace.events import TraceCategory, TraceEvent
from repro.trace.tracer import Tracer
from repro.trace.projections import PETimeline, ProjectionsReport, build_report
from repro.trace.render import render_usage_bars
from repro.trace.export import to_json
from repro.trace.occupancy import occupancy_stats, render_occupancy

__all__ = [
    "TraceCategory", "TraceEvent",
    "Tracer",
    "PETimeline", "ProjectionsReport", "build_report",
    "render_usage_bars",
    "to_json",
    "occupancy_stats", "render_occupancy",
]
