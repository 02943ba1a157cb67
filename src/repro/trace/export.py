"""Trace export: JSON (Chrome-trace-like).

The JSON export optionally merges *counter series* — ``(time, value)``
points from the metrics flight recorder (see
:func:`repro.metrics.export.counter_series`) — as Chrome ``"C"`` events,
so Perfetto renders queue depth and HBM occupancy tracks alongside the
task intervals.  It also optionally merges *causal spans* from
:class:`repro.obs.spans.SpanTracer`: each span becomes a complete ("X")
slice on its own process row (pid 1, so flat intervals and causal spans
never overdraw), and every causal edge becomes a flow-event pair
(``"s"`` at the cause's end, ``"f"`` with ``bp: "e"`` at the effect's
start) so Perfetto draws arrows from senders to executions and from
fetches to the tasks they fed.
"""

from __future__ import annotations

import json
import typing as _t

from repro.trace.tracer import Tracer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import Span

__all__ = ["to_json", "span_events"]

#: one counter track: series name -> [(time_s, value), ...]
CounterSeries = _t.Mapping[str, _t.Sequence[tuple[float, float]]]


def span_events(spans: "_t.Sequence[Span]") -> list[dict[str, _t.Any]]:
    """Chrome ``trace_event`` records for a causal span list.

    Span slices carry ``args.sid`` / ``args.parent`` / ``args.causes``
    (and ``args.task`` / ``args.block`` when bound), so the DAG survives
    a JSON round trip; each causal edge adds one ``"s"``/``"f"`` flow
    pair binding the enclosing slices on pid 1.
    """
    by_sid = {span.sid: span for span in spans}
    records: list[dict[str, _t.Any]] = []
    for span in spans:
        args: dict[str, _t.Any] = {"sid": span.sid, "parent": span.parent,
                                   "causes": list(span.causes)}
        if span.tid is not None:
            args["task"] = span.tid
        if span.block:
            args["block"] = span.block
        records.append({
            "name": span.label or span.category.value,
            "cat": "span." + span.category.value,
            "ph": "X",
            "pid": 1,
            "tid": span.lane,
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "args": args,
        })
    flow_id = 0
    for span in spans:
        for cause in span.causes:
            src = by_sid.get(cause)
            if src is None:      # cause never closed (crashed run)
                continue
            flow_id += 1
            records.append({
                "name": "cause", "cat": "flow", "ph": "s", "id": flow_id,
                "pid": 1, "tid": src.lane,
                "ts": min(src.end, span.start) * 1e6,
            })
            records.append({
                "name": "cause", "cat": "flow", "ph": "f", "bp": "e",
                "id": flow_id, "pid": 1, "tid": span.lane,
                "ts": span.start * 1e6,
            })
    return records


def to_json(tracer: Tracer, *, indent: int | None = None,
            counters: CounterSeries | None = None,
            spans: "_t.Sequence[Span] | None" = None) -> str:
    """Serialise events in a Chrome ``trace_event``-compatible layout.

    Each interval becomes a complete ("X") event with microsecond
    timestamps, so the output loads in ``chrome://tracing`` / Perfetto.
    ``counters`` adds one counter ("C") track per series; ``spans`` adds
    the causal span slices and their flow arrows (see
    :func:`span_events`).
    """
    records: list[dict[str, _t.Any]] = [
        {
            "name": ev.label or ev.category.value,
            "cat": ev.category.value,
            "ph": "X",
            "pid": 0,
            "tid": ev.lane,
            "ts": ev.start * 1e6,
            "dur": ev.duration * 1e6,
        }
        for ev in tracer.events
    ]
    if counters:
        for name in sorted(counters):
            for when, value in counters[name]:
                records.append({
                    "name": name,
                    "cat": "metrics",
                    "ph": "C",
                    "pid": 0,
                    "ts": when * 1e6,
                    "args": {"value": value},
                })
    if spans:
        records.extend(span_events(spans))
    return json.dumps({"traceEvents": records}, indent=indent)
