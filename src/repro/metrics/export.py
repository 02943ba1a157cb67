"""Exporters: Prometheus text exposition, JSON, run report, narration.

Everything renders from a :class:`~repro.metrics.registry.MetricsRegistry`
(plus, optionally, a :class:`~repro.metrics.recorder.FlightRecorder` for
the time dimension).  Nothing here runs on a hot path.
"""

from __future__ import annotations

import json
import math
import typing as _t

from repro.metrics.instruments import Counter, Gauge, Histogram, PolledGauge
from repro.metrics.recorder import FlightRecorder, Snapshot
from repro.metrics.registry import MetricsRegistry
from repro.units import format_size, format_time

__all__ = ["to_prometheus", "to_json", "digest", "render_report",
           "counter_series", "narration_line"]


# -- Prometheus text exposition -------------------------------------------------

def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: _t.Iterable[tuple[str, str]],
            extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*pairs, *extra]
    if not items:
        return ""
    return "{" + ",".join(f'{k}="{_escape(v)}"' for k, v in items) + "}"


def _fmt(value: float) -> str:
    if value != value:                      # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text exposition (format version 0.0.4).

    Counters get the conventional ``_total`` suffix when the instrument
    name does not already carry one; histograms expand into
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
    """
    lines: list[str] = []
    seen_headers: set[str] = set()

    def header(name: str, kind: str, description: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if description:
            lines.append(f"# HELP {name} {_escape(description)}")
        lines.append(f"# TYPE {name} {kind}")

    for inst in registry.instruments():
        if isinstance(inst, Counter):
            name = inst.name if inst.name.endswith("_total") \
                else inst.name + "_total"
            header(name, "counter", inst.description)
            lines.append(f"{name}{_labels(inst.labels)} {_fmt(inst.value)}")
        elif isinstance(inst, (PolledGauge, Gauge)):
            header(inst.name, "gauge", inst.description)
            lines.append(
                f"{inst.name}{_labels(inst.labels)} {_fmt(inst.value)}")
        elif isinstance(inst, Histogram):
            header(inst.name, "histogram", inst.description)
            cumulative = 0
            for bound, count in zip(inst.boundaries, inst.bucket_counts):
                cumulative += count
                le = (("le", _fmt(bound)),)
                lines.append(f"{inst.name}_bucket"
                             f"{_labels(inst.labels, le)} {cumulative}")
            lines.append(f"{inst.name}_bucket"
                         f"{_labels(inst.labels, (('le', '+Inf'),))} "
                         f"{inst.count}")
            lines.append(
                f"{inst.name}_sum{_labels(inst.labels)} {_fmt(inst.sum)}")
            lines.append(
                f"{inst.name}_count{_labels(inst.labels)} {inst.count}")
    return "\n".join(lines) + "\n"


# -- JSON -----------------------------------------------------------------------

def to_json(registry: MetricsRegistry,
            recorder: FlightRecorder | None = None, *,
            indent: int | None = None) -> str:
    """Machine-readable dump: instruments plus (optionally) snapshots."""
    instruments = []
    for inst in registry.instruments():
        record: dict[str, _t.Any] = {
            "name": inst.name,
            "kind": inst.kind,
            "labels": dict(inst.labels),
        }
        if isinstance(inst, Counter):
            record["value"] = inst.value
        elif isinstance(inst, Gauge):            # PolledGauge included
            record.update(value=inst.value, high_water=inst.high_water,
                          mean=inst.time_weighted_mean())
        elif isinstance(inst, Histogram):
            record.update(
                count=inst.count, sum=inst.sum,
                min=None if inst.count == 0 else inst.min,
                max=None if inst.count == 0 else inst.max,
                p50=None if inst.count == 0 else inst.p50,
                p95=None if inst.count == 0 else inst.p95,
                p99=None if inst.count == 0 else inst.p99)
        instruments.append(record)
    payload: dict[str, _t.Any] = {"schema": 1, "instruments": instruments}
    if recorder is not None:
        payload["snapshots"] = [
            {"time": snap.time, "values": snap.values}
            for snap in recorder.snapshots]
        payload["cadence"] = recorder.cadence
        payload["snapshots_taken"] = recorder.snapshots_taken
    return json.dumps(payload, indent=indent, sort_keys=True)


# -- compact digest (for BENCH_*.json) -------------------------------------------

def digest(registry: MetricsRegistry) -> dict[str, float]:
    """Compact numeric digest for perf-regression files.

    Counters collapse to per-family totals; gauges report high-water
    marks; histograms report count/p50/p95/p99 per family (labels summed
    away or, for percentiles, taken over the merged family observations
    via the widest child).

    Every value is coerced to ``float`` — byte-valued instruments hold
    ints, and a mixed int/float digest serializes inconsistently across
    BENCH_*.json snapshots (``12.0`` vs ``12``), breaking trend diffs.
    """
    out: dict[str, float] = {}
    families: dict[str, list] = {}
    for inst in registry.instruments():
        families.setdefault(inst.name, []).append(inst)
    for name, insts in sorted(families.items()):
        first = insts[0]
        if isinstance(first, Counter):
            out[name] = float(sum(i.value for i in insts))
        elif isinstance(first, Gauge):
            out[name + "_hwm"] = float(max(i.high_water for i in insts))
        elif isinstance(first, Histogram):
            total = sum(h.count for h in insts)
            out[name + "_count"] = float(total)
            if total:
                busiest = max(insts, key=lambda h: h.count)
                out[name + "_p50"] = float(busiest.p50)
                out[name + "_p95"] = float(busiest.p95)
                out[name + "_p99"] = float(busiest.p99)
    return out


# -- Chrome-trace counter series --------------------------------------------------

#: flat-series families exported as Perfetto counter tracks by default
DEFAULT_COUNTER_FAMILIES = (
    "repro_hbm_used_bytes",
    "repro_mem_used_bytes",
    "repro_pe_wait_depth",
    "repro_pe_run_depth",
    "repro_moves_inflight",
)


def counter_series(recorder: FlightRecorder,
                   families: _t.Sequence[str] = DEFAULT_COUNTER_FAMILIES,
                   ) -> dict[str, list[tuple[float, float]]]:
    """Per-family ``(time, value)`` series summed across labels.

    The result plugs straight into :func:`repro.trace.export.to_json`'s
    ``counters`` argument, merging queue depth and occupancy tracks into
    the Chrome trace.
    """
    out: dict[str, list[tuple[float, float]]] = {}
    for family in families:
        points = []
        for snap in recorder.snapshots:
            total = 0.0
            hit = False
            for key, value in snap.values.items():
                if key == family or key.startswith(family + "{"):
                    total += value
                    hit = True
            if hit:
                points.append((snap.time, total))
        if points:
            out[family] = points
    return out


# -- live narration ----------------------------------------------------------------

def _family_total(snap: Snapshot, family: str) -> float:
    return sum(v for k, v in snap.values.items()
               if k == family or k.startswith(family + "{"))


def narration_line(snap: Snapshot, previous: Snapshot | None, *,
                   hbm_capacity: int | None = None,
                   hbm_tier: str | None = None) -> str:
    """One human-readable delta line for ``repro metrics --watch``.

    ``hbm_tier`` names the fast tier's device (e.g. ``"mcdram"``) so the
    occupancy column can read the *polled* per-tier gauge, which is
    sampled at snapshot time; without it the pushed
    ``repro_hbm_used_bytes`` gauge (updated at move completions) is used.
    """
    def total(family: str) -> float:
        return _family_total(snap, family)

    def delta(family: str) -> str:
        if previous is None:
            return ""
        change = total(family) - _family_total(previous, family)
        return f"(+{change:g})" if change > 0 else ""

    hbm = 0.0
    if hbm_tier is not None:
        hbm = sum(v for k, v in snap.values.items()
                  if k.startswith("repro_mem_used_bytes")
                  and f'tier="{hbm_tier}"' in k)
    if hbm == 0.0:
        hbm = total("repro_hbm_used_bytes")
    occupancy = f"{hbm / hbm_capacity:4.0%}" if hbm_capacity \
        else format_size(int(hbm))
    parts = [
        f"[{format_time(snap.time):>9s}]",
        f"hbm={occupancy}",
        f"waitq={total('repro_pe_wait_depth'):g}",
        f"runq={total('repro_pe_run_depth'):g}",
        f"inflight={total('repro_moves_inflight'):g}",
        f"fetches={total('repro_prefetch_issued_total'):g}"
        f"{delta('repro_prefetch_issued_total')}",
        f"hits={total('repro_prefetch_hits_total'):g}"
        f"{delta('repro_prefetch_hits_total')}",
        f"evictions={total('repro_evictions_total'):g}"
        f"{delta('repro_evictions_total')}",
        f"moved={format_size(int(total('repro_moved_bytes_total')))}",
    ]
    return " ".join(parts)


# -- end-of-run report --------------------------------------------------------------

def _value_str(name: str, value: float) -> str:
    if value != value:
        return "nan"
    if "bytes" in name:
        return format_size(int(value))
    if "seconds" in name and 0 < abs(value) < 1e4:
        return format_time(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def render_report(registry: MetricsRegistry,
                  recorder: FlightRecorder | None = None, *,
                  title: str = "run") -> str:
    """The human-readable flight-recorder report printed at end of run."""
    lines = [f"== flight recorder report: {title} =="]
    if registry.base_labels:
        pairs = ", ".join(f"{k}={v}"
                          for k, v in sorted(registry.base_labels.items()))
        lines.append(f"   labels: {pairs}")
    if recorder is not None:
        span_start = recorder.snapshots[0].time if recorder.snapshots else 0.0
        span_end = recorder.snapshots[-1].time if recorder.snapshots else 0.0
        lines.append(
            f"   snapshots: {len(recorder.snapshots)} kept "
            f"({recorder.snapshots_taken} taken) over "
            f"[{format_time(span_start)} .. {format_time(span_end)}], "
            f"cadence {format_time(recorder.cadence)}")

    counters = [i for i in registry.instruments() if isinstance(i, Counter)]
    gauges = [i for i in registry.instruments()
              if isinstance(i, Gauge) and not isinstance(i, PolledGauge)]
    polled = [i for i in registry.instruments() if isinstance(i, PolledGauge)]
    histograms = [i for i in registry.instruments()
                  if isinstance(i, Histogram)]

    def strip_base(inst: _t.Any) -> str:
        own = [(k, v) for k, v in inst.labels
               if registry.base_labels.get(k) != v]
        if not own:
            return inst.name
        return inst.name + "{" + ",".join(f"{k}={v}" for k, v in own) + "}"

    if counters:
        lines.append("-- counters --")
        for inst in counters:
            lines.append(f"  {strip_base(inst):52s} "
                         f"{_value_str(inst.name, inst.value):>12s}")
    if gauges or polled:
        lines.append("-- gauges (last / high-water / time-weighted mean) --")
        for inst in [*gauges, *polled]:
            mean = inst.time_weighted_mean()
            lines.append(
                f"  {strip_base(inst):52s} "
                f"{_value_str(inst.name, inst.value):>12s} / "
                f"{_value_str(inst.name, inst.high_water):>12s} / "
                f"{_value_str(inst.name, mean):>12s}")
    if histograms:
        lines.append("-- histograms (count / p50 / p95 / p99) --")
        for inst in histograms:
            if inst.count == 0:
                lines.append(f"  {strip_base(inst):52s} {'0':>8s}")
                continue
            lines.append(
                f"  {strip_base(inst):52s} {inst.count:>8d} / "
                f"{_value_str(inst.name, inst.p50):>10s} / "
                f"{_value_str(inst.name, inst.p95):>10s} / "
                f"{_value_str(inst.name, inst.p99):>10s}")
    return "\n".join(lines)
