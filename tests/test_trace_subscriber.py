"""The Projections ``Tracer`` as a run-scoped probe subscriber.

A run has one recorder: a ``SpanTracer`` holds the ``Tracer`` already
subscribed on its environment, or installs one, and a plain ``Tracer``
installed next to it reads the same log, so the Projections intervals
and the spans are two views of the same execute, fetch, evict and
queue-op records.  The spec runner subscribes it for one app run only: after
``execute_spec`` every probe point is unbound again, even when the app
raised, and a second traced spec starts from an empty tracer.
"""

from __future__ import annotations

import collections

import pytest

from repro import hooks as probe
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.exec.runners import execute_spec
from repro.obs.spans import SpanTracer
from repro.sim.environment import Environment
from repro.trace import tracer as tracer_module
from repro.trace.events import TraceCategory
from repro.trace.tracer import Tracer
from repro.units import GiB, MiB

#: small out-of-core stencil: HBM holds half the grid, so it evicts
TRACED_SPEC = {"kind": "stencil", "params": {
    "strategy": "multi-io", "cores": 8, "mcdram": 128 * MiB,
    "ddr": GiB, "trace": True, "total": 256 * MiB, "block": 16 * MiB,
    "iterations": 1}}

EXECUTE = {TraceCategory.EXECUTE}
FETCH = {TraceCategory.IO_FETCH, TraceCategory.PREPROCESS_FETCH}
EVICT = {TraceCategory.IO_EVICT, TraceCategory.POSTPROCESS_EVICT}
QUEUE_OP = {TraceCategory.SCHEDULING}


def _intervals(records, categories):
    return collections.Counter((r.lane, r.category, r.start, r.end)
                               for r in records if r.category in categories)


def _label(span):
    """A span's label without the eviction reason the Tracer leaves out."""
    if span.category in EVICT:
        return span.label.rsplit(" [", 1)[0]
    return span.label


@pytest.mark.parametrize("strategy", ["multi-io", "no-io"])
def test_intervals_match_the_span_tracer(strategy):
    """The Projections intervals and the spans are two views of one log."""
    built = OOCRuntimeBuilder(strategy, cores=8, mcdram_capacity=128 * MiB,
                              ddr_capacity=GiB).build()
    spans = SpanTracer(built.env).install()
    tracer = Tracer(built.env).install()
    try:
        Stencil3D(built, StencilConfig(total_bytes=256 * MiB,
                                       block_bytes=16 * MiB,
                                       iterations=2)).run()
    finally:
        tracer.uninstall()
        spans.uninstall()
    assert tracer.log is spans.tracer.log
    for categories in (EXECUTE, FETCH, EVICT, QUEUE_OP):
        mine = _intervals(tracer.events, categories)
        assert mine, f"the run produced no {categories} intervals"
        assert mine == _intervals(spans.spans, categories)
    # installed before the app, so every interval has its span, in order
    assert [ev.label for ev in tracer.events] == \
        [_label(span) for span in spans.spans]
    assert all(span.label != _label(span) for span in spans.spans
               if span.category in EVICT)
    assert len(tracer.occupancy) == built.machine.mover.moves_completed


def test_one_recorder_per_environment():
    env = Environment()
    spans = SpanTracer(env).install()
    tracer = Tracer(env).install()
    try:
        # the plain tracer reads the span tracer's recorder, which closes
        # the causal record itself: no interval point is a fan-out
        assert probe.on_execute_end == spans.tracer.on_execute_end
        assert probe.on_fetch == spans.tracer.on_fetch
        assert probe.on_move_end == spans.tracer.on_move_end
        assert probe.on_send == spans.on_send
        assert spans.tracer._causal == (spans.causal,)
        assert tracer.log is spans.tracer.log
        second = Tracer(env).install()
        assert second.log is spans.tracer.log
        second.uninstall()
        # a second span tracer is a second causal layer over the same log
        other = SpanTracer(env).install()
        assert other.tracer.log is spans.tracer.log
        assert spans.tracer._causal == (spans.causal, other.causal)
        other.uninstall()
        assert spans.tracer._causal == (spans.causal,)
        # releasing the span tracer keeps the recorder for the reader
        spans.uninstall()
        assert probe.on_execute_end == spans.tracer.on_execute_end
        assert spans.tracer._causal == ()
        assert probe.on_send is None
    finally:
        tracer.uninstall()
        spans.uninstall()
    assert _all_points_unbound()
    # a tracer on another environment records on its own
    alone = Tracer(Environment()).install()
    try:
        assert probe.on_execute_end == alone.on_execute_end
    finally:
        alone.uninstall()
    assert _all_points_unbound()


def _stencil_run(observed):
    """One stencil run with the CLI's observers: metrics, spans, then
    Projections; or Projections alone."""
    from repro.metrics import MetricsSession

    built = OOCRuntimeBuilder("multi-io", cores=8, mcdram_capacity=128 * MiB,
                              ddr_capacity=GiB).build()
    session = MetricsSession(built, app="stencil") if observed else None
    spans = SpanTracer(built.env).install() if observed else None
    tracer = Tracer(built.env).install()
    try:
        Stencil3D(built, StencilConfig(total_bytes=256 * MiB,
                                       block_bytes=16 * MiB,
                                       iterations=2)).run()
    finally:
        tracer.uninstall()
        if spans is not None:
            spans.uninstall()
        if session is not None:
            session.finish()
    return tracer, spans, session


def test_one_log_per_run_in_cli_order():
    alone, _, _ = _stencil_run(observed=False)
    tracer, spans, session = _stencil_run(observed=True)
    log = session.tracer
    assert tracer.log is log.log and spans.tracer.log is log.log
    assert tracer.events == alone.events
    assert list(tracer.log.move_kind) == list(alone.log.move_kind)
    assert len(tracer.log.move_kind) > 0
    assert len(spans.spans) == len(tracer.events)
    # metrics folded the same log the other views read
    ends = log.log.move_kind.count("end")
    assert session.registry.total("repro_moves_total") == ends
    fetched = sum(ev.nbytes for ev in log.events
                  if ev.nbytes is not None and ev.reason is None)
    assert session.registry.total("repro_fetched_bytes_total") == fetched
    assert _all_points_unbound()


def test_no_point_fans_out_under_every_view():
    """Projections, spans and metrics on one run: each bound point is one
    subscriber's bound method, never a fan-out."""
    from repro.metrics import MetricsSession

    built = OOCRuntimeBuilder("multi-io", cores=8, mcdram_capacity=128 * MiB,
                              ddr_capacity=GiB).build()
    session = MetricsSession(built, app="stencil")
    spans = SpanTracer(built.env).install()
    tracer = Tracer(built.env).install()
    try:
        bound = {point: getattr(probe, point) for point in probe.CATALOGUE
                 if getattr(probe, point) is not None}
        assert {"on_execute_end", "on_fetch", "on_evict", "on_queue_op",
                "on_send", "on_execute_begin"} <= set(bound)
        for point, method in bound.items():
            assert getattr(method, "__self__", None) in (
                session.tracer, spans), point
    finally:
        tracer.uninstall()
        spans.uninstall()
        session.finish()
    assert _all_points_unbound()


def _observed_objects(iterations):
    """GC-tracked objects alive after a traced stencil run, with and
    without metrics and spans installed, and the intervals it logged."""
    import gc

    from repro.metrics import MetricsSession

    alive = []
    for observed in (False, True):
        built = OOCRuntimeBuilder("multi-io", cores=8,
                                  mcdram_capacity=128 * MiB,
                                  ddr_capacity=GiB).build()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            session = (MetricsSession(built, app="stencil") if observed
                       else None)
            spans = SpanTracer(built.env).install() if observed else None
            tracer = Tracer(built.env).install()
            try:
                Stencil3D(built, StencilConfig(
                    total_bytes=256 * MiB, block_bytes=16 * MiB,
                    iterations=iterations)).run()
                alive.append(len(gc.get_objects()) - before)
            finally:
                tracer.uninstall()
                if spans is not None:
                    spans.uninstall()
                if session is not None:
                    session.finish()
        finally:
            gc.enable()
    return alive[1] - alive[0], len(tracer)


def test_observers_keep_no_object_per_logged_interval():
    """The log and the causal rows are columns: a longer run adds fewer
    than one tracked object per 10 intervals it logs."""
    short_objects, short_intervals = _observed_objects(iterations=1)
    long_objects, long_intervals = _observed_objects(iterations=4)
    assert long_intervals - short_intervals > 400
    assert (long_objects - short_objects) * 10 < \
        long_intervals - short_intervals


class _Recording(Tracer):
    """A Tracer that remembers every instance the runner creates."""

    made: list["_Recording"] = []

    def __init__(self, env):
        super().__init__(env)
        self.made.append(self)


@pytest.fixture
def recording(monkeypatch):
    _Recording.made = []
    monkeypatch.setattr(tracer_module, "Tracer", _Recording)
    return _Recording.made


def _all_points_unbound():
    return all(getattr(probe, point) is None for point in probe.CATALOGUE)


def test_traced_spec_unbinds_every_point(recording):
    out = execute_spec(TRACED_SPEC)
    assert out["ok"], out.get("traceback")
    assert 0.0 < out["result"]["utilization"] <= 1.0
    assert len(recording) == 1 and len(recording[0]) > 0
    assert _all_points_unbound()


def test_failing_traced_spec_unbinds_every_point(recording, monkeypatch):
    def boom(app):
        raise RuntimeError("app failed mid-run")

    monkeypatch.setattr(Stencil3D, "run", boom)
    out = execute_spec(TRACED_SPEC)
    assert not out["ok"]
    assert "app failed mid-run" in out["error"]
    assert len(recording) == 1, "the tracer was installed before the app"
    assert _all_points_unbound()


def test_back_to_back_traced_specs_do_not_share_events(recording):
    first = execute_spec(TRACED_SPEC)
    seen = list(recording[0].events)
    second = execute_spec(TRACED_SPEC)
    assert first["result"] == second["result"]
    assert len(recording) == 2 and recording[0] is not recording[1]
    assert recording[0].events == seen, "first tracer saw the second run"
    assert recording[1].events == seen
    assert recording[1].occupancy == recording[0].occupancy


def test_untraced_spec_installs_no_tracer(recording):
    params = {**TRACED_SPEC["params"], "trace": False}
    out = execute_spec({"kind": "stencil", "params": params})
    assert out["ok"] and "utilization" not in out["result"]
    assert recording == []
