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

from repro.metrics.instruments import (_NO_ARG, Counter, Gauge,
                                       Histogram, PolledGauge, _Instrument,
                                       sample_polled)

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
        #: name -> label set -> instrument
        self._instruments: dict[str, dict[LabelKey, _Instrument]] = {}
        #: every label set and label pair in use, interned: instruments
        #: that share labels share the tuples, so a run's hundreds of
        #: polled gauges leave few objects for the collector to walk
        self._label_sets: dict[LabelKey, LabelKey] = {}
        self._pairs: dict[tuple[str, str], tuple[str, str]] = {}
        #: the instruments in (name, labels) order, None after a new one
        #: registers: sorting the keys was most of a snapshot's cost
        self._sorted: list[_Instrument] | None = None
        #: rebuilt with ``_sorted``: the polled gauges, and the flatten
        #: plan, two columns beside it: each instrument's series (a
        #: histogram's ``_count`` series) and a histogram's ``_sum``
        #: series (None for the others)
        self._polled: list[PolledGauge] = []
        self._series: list[str] = []
        self._sum_series: list[str | None] = []

    # -- child lookup -------------------------------------------------------

    def _labels(self, name: str, labels: dict[str, str]) -> LabelKey:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        merged = {**self.base_labels, **{k: str(v) for k, v in labels.items()}}
        key = tuple(sorted(merged.items()))
        shared = self._label_sets.get(key)
        if shared is None:
            pairs = self._pairs
            shared = tuple(pairs.setdefault(pair, pair) for pair in key)
            self._label_sets[shared] = shared
        return shared

    def _get_or_create(self, cls: type, name: str, labels: dict[str, str],
                       description: str, **kwargs: _t.Any) -> _t.Any:
        key = self._labels(name, labels)
        family = self._instruments.get(name)
        if family is None:
            family = self._instruments[name] = {}
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = cls(name, key, description, **kwargs)
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

    def observe(self, name: str, fn: _t.Callable[..., float],
                description: str = "", *, of: _t.Any = _NO_ARG,
                **labels: str) -> PolledGauge:
        """Register a *polled* gauge: ``fn()``, or ``fn(of)``, is sampled
        at snapshot time.

        Zero hot-path cost — the way to track queue depths, tier occupancy
        and PE time accounting.
        """
        return self._get_or_create(PolledGauge, name, labels, description,
                                   clock=self.clock, fn=fn, of=of)

    def histogram(self, name: str, description: str = "",
                  **labels: str) -> Histogram:
        """A latency histogram over the default bucket boundaries."""
        return self._get_or_create(Histogram, name, labels, description)

    # -- collection ---------------------------------------------------------

    def instruments(self) -> list[_Instrument]:
        """Every registered instrument, sorted by (name, labels)."""
        return list(self._ordered())

    def _ordered(self) -> list[_Instrument]:
        if self._sorted is None:
            families = self._instruments
            ordered = self._sorted = [
                families[name][labels] for name in sorted(families)
                for labels in sorted(families[name])]
            self._polled = [instrument for instrument in ordered
                            if isinstance(instrument, PolledGauge)]
            self._series, self._sum_series = [], []
            for instrument in ordered:
                if isinstance(instrument, Histogram):
                    base, suffix = instrument.name, instrument.label_suffix
                    self._series.append(f"{base}_count{suffix}")
                    self._sum_series.append(f"{base}_sum{suffix}")
                else:
                    self._series.append(instrument.series)
                    self._sum_series.append(None)
        return self._sorted

    def get(self, name: str, **labels: str) -> _Instrument | None:
        """Look up an existing instrument without creating it."""
        key = self._labels(name, labels)
        family = self._instruments.get(name)
        return None if family is None else family.get(key)

    def sample_polled(self) -> None:
        """Evaluate every polled gauge (one pass, snapshot cadence)."""
        self._ordered()
        sample_polled(self._polled, self.clock())

    def total(self, name: str) -> float:
        """Sum of one counter/gauge family across all label sets."""
        return sum(inst.value
                   for inst in self._instruments.get(name, {}).values()
                   if isinstance(inst, (Counter, Gauge)))

    def flatten(self) -> dict[str, float]:
        """One flat ``{series: value}`` mapping — the snapshot payload.

        Counters and gauges contribute their value; histograms contribute ``_count`` and ``_sum`` series (cheap to delta between
        snapshots; percentiles are end-of-run report material).
        """
        self.sample_polled()
        flat: dict[str, float] = {}
        for series, instrument, sum_series in zip(
                self._series, self._sorted, self._sum_series):
            if sum_series is None:
                flat[series] = instrument.value
            else:
                flat[series] = float(instrument.count)
                flat[sum_series] = instrument.sum
        return flat
