"""Typed instruments: Counter, Gauge, Histogram.

Every instrument is identified by a Prometheus-compatible name plus a
(small) label set — ``{pe, tier, strategy, app, reason, ...}`` — and is
owned by a :class:`~repro.metrics.registry.MetricsRegistry`, which hands
out memoized children so hot paths pay one dict lookup per update when
metrics are enabled (and one ``is not None`` test per probe point when
they are not; see :mod:`repro.hooks`).

Gauges are *simulation-clock aware*: they integrate ``value * dt`` over
sim time so the flight-recorder report can show time-weighted means (mean
queue depth, mean HBM occupancy) and high-water marks, not just the final
value.
"""

from __future__ import annotations

import math
import typing as _t

__all__ = ["Counter", "Gauge", "PolledGauge", "Histogram",
           "DEFAULT_LATENCY_BOUNDS", "Clock"]

#: callable returning the current (simulated) time in seconds
Clock = _t.Callable[[], float]

#: log-spaced bucket boundaries for simulated latencies (seconds); spans
#: queue-lock costs (~1us) through multi-second out-of-core moves
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class _Instrument:
    """Shared identity: name + sorted label pairs."""

    __slots__ = ("name", "labels", "description", "label_suffix", "series")
    kind = "untyped"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...],
                 description: str = ""):
        self.name = name
        self.labels = labels
        self.description = description
        # rendered once: every flight-recorder snapshot keys on them
        inner = ",".join(f'{k}="{v}"' for k, v in labels)
        #: ``{k="v",...}`` rendering, empty string when unlabelled
        self.label_suffix = "{" + inner + "}" if labels else ""
        #: flat series key: ``name{k="v",...}``
        self.series = name + self.label_suffix

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.series}>"


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = (),
                 description: str = ""):
        super().__init__(name, labels, description)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        self.value += amount


class Gauge(_Instrument):
    """Point-in-time value with high/low-water marks and a time-weighted
    mean over the simulated clock."""

    __slots__ = ("clock", "value", "high_water", "low_water",
                 "_integral", "_since", "_created", "updates")
    kind = "gauge"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = (),
                 description: str = "", clock: Clock | None = None):
        super().__init__(name, labels, description)
        self.clock = clock if clock is not None else (lambda: 0.0)
        now = self.clock()
        self.value = 0.0
        self.high_water = 0.0
        self.low_water = 0.0
        self._integral = 0.0   # integral of value over [created, since]
        self._since = now      # when `value` last changed
        self._created = now
        self.updates = 0

    def set(self, value: float) -> None:
        now = self.clock()
        self._integral += self.value * (now - self._since)
        self._since = now
        self.value = value
        self.updates += 1
        if value > self.high_water:
            self.high_water = value
        if value < self.low_water:
            self.low_water = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def time_weighted_mean(self, now: float | None = None) -> float:
        """Mean of the gauge over sim time since creation."""
        if now is None:
            now = self.clock()
        span = now - self._created
        if span <= 0:
            return self.value
        return (self._integral + self.value * (now - self._since)) / span


class PolledGauge(Gauge):
    """Gauge backed by a callable, evaluated at snapshot/collect time.

    The zero-hot-path-cost way to track queue depths, tier occupancy and
    PE time accounting: nothing happens until the flight recorder (or an
    exporter) calls :meth:`sample`.
    """

    __slots__ = ("fn",)

    def __init__(self, name: str, fn: _t.Callable[[], float],
                 labels: tuple[tuple[str, str], ...] = (),
                 description: str = "", clock: Clock | None = None):
        super().__init__(name, labels, description, clock=clock)
        self.fn = fn

    def sample(self) -> float:
        self.set(float(self.fn()))
        return self.value


class Histogram(_Instrument):
    """Fixed-boundary bucket histogram with interpolated percentiles."""

    __slots__ = ("boundaries", "bucket_counts", "count", "sum",
                 "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...] = (),
                 description: str = "",
                 boundaries: _t.Sequence[float] | None = None):
        super().__init__(name, labels, description)
        bounds = tuple(boundaries) if boundaries is not None \
            else DEFAULT_LATENCY_BOUNDS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name!r} boundaries must be strictly increasing")
        self.boundaries = bounds
        #: one count per boundary plus the +Inf overflow bucket
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        # linear scan: boundary lists are short and observations are on
        # simulated (not wall-clock) critical paths
        i = 0
        bounds = self.boundaries
        n = len(bounds)
        while i < n and value > bounds[i]:
            i += 1
        self.bucket_counts[i] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in-bucket.

        Returns NaN with no observations; the overflow bucket reports the
        observed maximum (the honest upper bound we have).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if i >= len(self.boundaries):       # +Inf bucket
                    return self.max
                lo = self.boundaries[i - 1] if i > 0 else 0.0
                hi = self.boundaries[i]
                frac = (target - cumulative) / bucket_count
                return lo + (hi - lo) * frac
            cumulative += bucket_count
        return self.max  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan
