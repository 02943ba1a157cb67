"""Round-trip coverage for trace/export: Chrome trace_event JSON + CSV.

The Chrome schema is asserted field-by-field after a ``json.loads``
round-trip, for interval ("X") events, for the metrics counter ("C")
events merged from the flight recorder, and for the repro.obs span
slices plus their flow ("s"/"f") arrow pairs — the shapes Perfetto
requires.
"""

import json

import pytest

from repro.obs.spans import Span
from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent
from repro.trace.export import span_events, to_json
from repro.trace.tracer import Tracer


@pytest.fixture
def tracer():
    t = Tracer(Environment())
    t.events.extend([
        TraceEvent("pe0", TraceCategory.EXECUTE, 0.0, 0.004, "stencil.sweep"),
        TraceEvent("io0", TraceCategory.IO_FETCH, 0.001, 0.003, "fetch b3"),
        TraceEvent("io0", TraceCategory.IO_EVICT, 0.003, 0.0035, "evict b1"),
    ])
    return t


COUNTERS = {
    "repro_hbm_used_bytes": [(0.0, 0.0), (0.002, 1024.0), (0.004, 512.0)],
    "repro_pe_wait_depth": [(0.0, 2.0)],
}


class TestJsonIntervalEvents:
    def test_round_trip_schema(self, tracer):
        doc = json.loads(to_json(tracer))
        events = doc["traceEvents"]
        assert len(events) == 3
        for ev in events:
            assert ev["ph"] == "X"
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], str)      # lane name
            assert isinstance(ev["ts"], float)
            assert isinstance(ev["dur"], float)
            assert ev["name"]

    def test_timestamps_in_microseconds(self, tracer):
        events = json.loads(to_json(tracer))["traceEvents"]
        fetch = next(e for e in events if e["name"] == "fetch b3")
        assert fetch["ts"] == pytest.approx(1000.0)
        assert fetch["dur"] == pytest.approx(2000.0)
        assert fetch["tid"] == "io0"
        assert fetch["cat"] == "io_fetch"

    def test_indent_still_parses(self, tracer):
        assert json.loads(to_json(tracer, indent=2))["traceEvents"]


class TestJsonCounterEvents:
    def test_counter_events_appended(self, tracer):
        events = json.loads(to_json(tracer, counters=COUNTERS))["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 4
        for ev in counters:
            assert ev["cat"] == "metrics"
            assert ev["pid"] == 0
            assert isinstance(ev["ts"], float)
            assert set(ev["args"]) == {"value"}
            assert "dur" not in ev

    def test_counter_values_and_times(self, tracer):
        events = json.loads(to_json(tracer, counters=COUNTERS))["traceEvents"]
        hbm = [e for e in events if e["ph"] == "C"
               and e["name"] == "repro_hbm_used_bytes"]
        assert [e["ts"] for e in hbm] == [0.0, 2000.0, 4000.0]
        assert [e["args"]["value"] for e in hbm] == [0.0, 1024.0, 512.0]

    def test_counter_tracks_sorted_by_name(self, tracer):
        events = json.loads(to_json(tracer, counters=COUNTERS))["traceEvents"]
        names = [e["name"] for e in events if e["ph"] == "C"]
        assert names == sorted(names)

    def test_counters_on_empty_tracer(self):
        t = Tracer(Environment())
        events = json.loads(to_json(t, counters=COUNTERS))["traceEvents"]
        assert all(e["ph"] == "C" for e in events)

    def test_no_counters_no_counter_events(self, tracer):
        events = json.loads(to_json(tracer, counters={}))["traceEvents"]
        assert all(e["ph"] == "X" for e in events)


#: a three-span causal chain: fetch on io0 -> execute on pe0 -> execute
#: on pe1 (cross-lane message edge), as SpanTracer would record it
SPANS = [
    Span(0, "io0", TraceCategory.IO_FETCH, 0.001, 0.003,
         "fetch b3", (), None, 7, "b3"),
    Span(1, "pe0", TraceCategory.EXECUTE, 0.003, 0.006,
         "Chare[0].kernel", (0,), 0, 7),
    Span(2, "pe1", TraceCategory.EXECUTE, 0.006, 0.008,
         "Chare[1].kernel", (1,), 1, 8),
]


class TestJsonSpanEvents:
    def doc(self, tracer, spans=SPANS):
        return json.loads(to_json(tracer, counters=COUNTERS, spans=spans))

    def test_span_slices_round_trip_schema(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        slices = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
        assert len(slices) == len(SPANS)
        for ev in slices:
            assert ev["cat"].startswith("span.")
            assert isinstance(ev["tid"], str)
            assert isinstance(ev["ts"], float)
            assert isinstance(ev["dur"], float)
            assert ev["name"]

    def test_span_pid_disjoint_from_interval_tracer(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        tracer_pids = {e["pid"] for e in events
                       if e["ph"] == "X" and not e["cat"].startswith("span.")}
        span_pids = {e["pid"] for e in events
                     if e["ph"] == "X" and e["cat"].startswith("span.")}
        assert tracer_pids.isdisjoint(span_pids)

    def test_parent_and_causes_survive_round_trip(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        by_sid = {e["args"]["sid"]: e for e in events
                  if e["ph"] == "X" and e["cat"].startswith("span.")}
        assert by_sid[0]["args"]["parent"] is None
        assert by_sid[1]["args"]["parent"] == 0
        assert by_sid[1]["args"]["causes"] == [0]
        assert by_sid[2]["args"]["causes"] == [1]
        assert by_sid[1]["args"]["task"] == 7
        assert by_sid[0]["args"]["block"] == "b3"

    def test_flow_pairs_for_each_causal_edge(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 2   # two causal edges
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        for ev in finishes:
            assert ev["bp"] == "e"     # bind to the slice's start
        for ev in starts + finishes:
            assert ev["cat"] == "flow"
            assert ev["pid"] == 1

    def test_flow_endpoints_land_on_the_right_lanes(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        edges = set()
        for start in (e for e in events if e["ph"] == "s"):
            finish = next(e for e in events
                          if e["ph"] == "f" and e["id"] == start["id"])
            edges.add((start["tid"], finish["tid"]))
        assert edges == {("io0", "pe0"), ("pe0", "pe1")}

    def test_flow_timestamps_within_spans(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        fetch_to_exec = next(e for e in events
                             if e["ph"] == "s" and e["tid"] == "io0")
        assert fetch_to_exec["ts"] == pytest.approx(3000.0)   # fetch end

    def test_dangling_cause_skipped(self):
        spans = [Span(5, "pe0", TraceCategory.EXECUTE, 0.0, 0.001,
                      "k", (99,), 99)]
        events = span_events(spans)
        assert all(e["ph"] not in ("s", "f") for e in events)

    def test_counters_spans_and_intervals_coexist(self, tracer):
        events = self.doc(tracer)["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"X", "C", "s", "f"}

    def test_no_spans_no_span_events(self, tracer):
        events = json.loads(to_json(tracer, spans=[]))["traceEvents"]
        assert all(not e["cat"].startswith("span.") for e in events)
