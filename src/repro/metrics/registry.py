"""The instrument registry: memoized typed children, flat snapshots.

One :class:`MetricsRegistry` holds one run's instruments; a
:class:`~repro.metrics.session.MetricsSession` feeds it by folding the
run's recorder log.  Instruments are memoized by ``(name, labels)``, so
``registry.counter("repro_moves_total", src=..., dst=...)`` always
returns the same child.

``base_labels`` (typically ``{strategy, app}``) are stamped onto every
instrument, giving the ``{pe, tier, strategy, app}`` label discipline the
exporters rely on without threading context through every call site.
"""

from __future__ import annotations

import re
import typing as _t

from repro.metrics.instruments import (Counter, Gauge, Histogram,
                                       PolledGauge, _Instrument)

__all__ = ["MetricsRegistry"]

#: Prometheus metric-name grammar (we forbid colons: those are for rules)
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = tuple[tuple[str, str], ...]


class MetricsRegistry:
    """Owns every instrument of one run.

    ``clock`` feeds the gauges' time-weighted means; wire it to the
    simulation clock (``lambda: env.now``) so means are in *simulated*
    seconds, matching the tracer and the paper's figures.
    """

    def __init__(self, clock: _t.Callable[[], float] | None = None,
                 **base_labels: str):
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.base_labels = {k: str(v) for k, v in base_labels.items()}
        self._instruments: dict[tuple[str, LabelKey], _Instrument] = {}
        #: the instruments in (name, labels) order, None after a new one
        #: registers: sorting the keys was most of a snapshot's cost
        self._sorted: list[_Instrument] | None = None

    # -- child lookup -------------------------------------------------------

    def _key(self, name: str, labels: dict[str, str]) -> tuple[str, LabelKey]:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        merged = {**self.base_labels, **{k: str(v) for k, v in labels.items()}}
        return name, tuple(sorted(merged.items()))

    def _get_or_create(self, cls: type, name: str, labels: dict[str, str],
                       description: str, **kwargs: _t.Any) -> _t.Any:
        key = self._key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1], description, **kwargs)
            self._instruments[key] = instrument
            self._sorted = None
        elif not isinstance(instrument, cls) or \
                (cls is Gauge and isinstance(instrument, PolledGauge)):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}")
        return instrument

    def counter(self, name: str, description: str = "",
                **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels, description)

    def gauge(self, name: str, description: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels, description,
                                   clock=self.clock)

    def observe(self, name: str, fn: _t.Callable[[], float],
                description: str = "", **labels: str) -> PolledGauge:
        """Register a *polled* gauge: ``fn()`` is sampled at snapshot time.

        Zero hot-path cost — the way to track queue depths, tier occupancy
        and PE time accounting.
        """
        return self._get_or_create(PolledGauge, name, labels, description,
                                   clock=self.clock, fn=fn)

    def histogram(self, name: str, description: str = "",
                  **labels: str) -> Histogram:
        """A latency histogram over the default bucket boundaries."""
        return self._get_or_create(Histogram, name, labels, description)

    # -- collection ---------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, sorted by (name, labels)."""
        if self._sorted is None:
            self._sorted = [self._instruments[k]
                            for k in sorted(self._instruments)]
        return list(self._sorted)

    def get(self, name: str, **labels: str) -> _Instrument | None:
        """Look up an existing instrument without creating it."""
        return self._instruments.get(self._key(name, labels))

    def sample_polled(self) -> None:
        """Evaluate every polled gauge (one pass, snapshot cadence)."""
        for instrument in self._instruments.values():
            if isinstance(instrument, PolledGauge):
                instrument.sample()

    def total(self, name: str) -> float:
        """Sum of one counter/gauge family across all label sets."""
        return sum(inst.value for inst in self._instruments.values()
                   if inst.name == name and isinstance(inst, (Counter, Gauge)))

    def flatten(self) -> dict[str, float]:
        """One flat ``{series: value}`` mapping — the snapshot payload.

        Counters and gauges contribute their value; histograms contribute ``_count`` and ``_sum`` series (cheap to delta between
        snapshots; percentiles are end-of-run report material).
        """
        self.sample_polled()
        flat: dict[str, float] = {}
        for instrument in self.instruments():
            if isinstance(instrument, (Counter, Gauge)):
                flat[instrument.series] = instrument.value
            else:
                base = instrument.name
                suffix = instrument.label_suffix
                flat[f"{base}_count{suffix}"] = float(instrument.count)
                flat[f"{base}_sum{suffix}"] = instrument.sum
        return flat
