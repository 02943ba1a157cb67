"""repro.metrics: the runtime telemetry subsystem.

A simulation-clock-aware metrics layer over the OOC runtime:

* typed instruments (:class:`Counter`, :class:`Gauge` with time-weighted
  mean and high-water marks, fixed-boundary :class:`Histogram` with
  p50/p95/p99), labelled ``{pe, tier, strategy,
  app, ...}`` and memoized per label set;
* a probe subscriber (:class:`MetricsSubscriber`) that owns every pushed
  metric: hot paths only announce events through :mod:`repro.hooks` and
  pay one ``is not None`` test per event when metrics are off;
* polled gauges (:func:`bind_built_runtime`) for queue depths, tier
  occupancy and PE time accounting — zero cost until sampled;
* a :class:`FlightRecorder` snapshotting the registry on a sim-time
  cadence into a ring buffer;
* exporters: Prometheus text exposition, JSON, a human-readable run
  report, Chrome-trace counter series for Perfetto, and live narration
  lines for ``repro metrics --watch``.

See README "Observability" for the instrument table and CLI usage.
"""

from repro.metrics.bind import bind_built_runtime
from repro.metrics.export import (counter_series, digest, narration_line,
                                  render_report, to_json, to_prometheus)
from repro.metrics.instruments import (DEFAULT_LATENCY_BOUNDS, Counter,
                                       Gauge, Histogram, PolledGauge)
from repro.metrics.recorder import FlightRecorder, Snapshot
from repro.metrics.registry import MetricsRegistry
from repro.metrics.session import MetricsSession
from repro.metrics.subscriber import MetricsSubscriber

__all__ = [
    "Counter", "Gauge", "PolledGauge", "Histogram",
    "DEFAULT_LATENCY_BOUNDS",
    "MetricsRegistry", "FlightRecorder", "Snapshot", "MetricsSession",
    "MetricsSubscriber",
    "bind_built_runtime",
    "to_prometheus", "to_json", "digest", "render_report",
    "counter_series", "narration_line",
]
