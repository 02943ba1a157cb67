"""Projections-style tracing and timeline analysis.

The paper uses Projections (the Charm++ performance visualiser) to show
where PEs spend their time — Figure 5 (wait time under single vs multiple
IO threads) and Figure 6 (synchronous fetch overhead vs asynchronous).
This package records the same information from the simulation: typed,
per-PE time intervals, aggregated into utilisation/wait breakdowns, ASCII
usage bars, and JSON export.

:class:`Tracer` is a run's one interval recorder, a subscriber of the
probe (:mod:`repro.hooks`).  :class:`repro.obs.SpanTracer` extends it
with an optional causal layer, so with spans on each interval is still
logged once, and a plain ``Tracer`` installed next to a recorder on the
same environment reads that recorder's log instead of subscribing.  The
code that reads the intervals subscribes the tracer for one run and
unsubscribes it in a ``finally``::

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
