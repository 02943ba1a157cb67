"""repro.metrics: the runtime telemetry subsystem.

A simulation-clock-aware metrics layer over the OOC runtime:

* typed instruments (:class:`Counter`, :class:`Gauge` with time-weighted
  mean and high-water marks, fixed-boundary :class:`Histogram` with
  p50/p95/p99), labelled ``{pe, tier, strategy,
  app, ...}`` and memoized per label set;
* pushed metrics (moves, fetches, evictions, fetch outcomes) folded
  from the run's one recorder log (:class:`repro.trace.Tracer`) at each
  snapshot: hot paths only announce events through :mod:`repro.hooks`
  and pay one ``is not None`` test per event when no observer is on;
* polled gauges (:func:`bind_built_runtime`) for queue depths, tier
  occupancy and PE time accounting — zero cost until sampled;
* a :class:`FlightRecorder` snapshotting the registry on a sim-time
  cadence into a ring buffer;
* exporters: Prometheus text exposition, JSON, a human-readable run
  report, Chrome-trace counter series for Perfetto, and live narration
  lines for ``repro metrics --watch``.

See README "Observability" for the instrument table and CLI usage.
"""

from __future__ import annotations

import typing as _t

__all__ = [
    "Counter", "Gauge", "PolledGauge", "Histogram",
    "DEFAULT_LATENCY_BOUNDS",
    "MetricsRegistry", "FlightRecorder", "Snapshot", "MetricsSession",
    "bind_built_runtime",
    "to_prometheus", "to_json", "digest", "render_report",
    "counter_series", "narration_line",
]

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.bind import bind_built_runtime
    from repro.metrics.export import (counter_series, digest, narration_line,
                                      render_report, to_json, to_prometheus)
    from repro.metrics.instruments import (DEFAULT_LATENCY_BOUNDS, Counter,
                                           Gauge, Histogram, PolledGauge)
    from repro.metrics.recorder import FlightRecorder, Snapshot
    from repro.metrics.registry import MetricsRegistry
    from repro.metrics.session import MetricsSession

#: lazy attribute -> defining submodule: a run that only records metrics
#: (``MetricsSession``) does not load the exporters
_LAZY = {
    **dict.fromkeys(("Counter", "Gauge", "PolledGauge", "Histogram",
                     "DEFAULT_LATENCY_BOUNDS"), "repro.metrics.instruments"),
    "MetricsRegistry": "repro.metrics.registry",
    "FlightRecorder": "repro.metrics.recorder",
    "Snapshot": "repro.metrics.recorder",
    "MetricsSession": "repro.metrics.session",
    "bind_built_runtime": "repro.metrics.bind",
    **dict.fromkeys(("to_prometheus", "to_json", "digest", "render_report",
                     "counter_series", "narration_line"),
                    "repro.metrics.export"),
}


def __getattr__(name: str) -> _t.Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
