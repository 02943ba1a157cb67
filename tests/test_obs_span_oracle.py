"""The shipped span tracer builds the same DAG as the event-threaded oracle.

:class:`SpanTracer` stamps causal sources at ``send`` and at the
completing ``contribute``; :class:`tests.span_oracle.EventThreadedSpanTracer`
threads them through every sim-core event instead.  Both are subscribed
to the same run, so they see one schedule; their spans (sids, causes,
parents, labels, times) and critical paths must agree exactly.  The
runs are the Figure 5 and 6 traced stencils and one leaderboard run per
app (multi-io, under a seeded tie-breaker), at TINY scale.  The oracle
turns the kernel's fused resume path off, so the Figure 5 and 6 runs
are repeated with the shipped tracer alone, which keeps it on.
"""

import dataclasses

import pytest

from repro.bench.experiments import fig5_plan, fig6_plan
from repro.bench.harness import Scale
from repro.bench.leaderboard import leaderboard_plans
from repro.core.api import OOCRuntimeBuilder
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec
from repro.obs import SpanTracer, critical_path
from repro.trace.events import TraceCategory
from tests.span_oracle import EventThreadedSpanTracer


def _specs():
    specs = [*fig5_plan(Scale.TINY).specs, *fig6_plan(Scale.TINY).specs]
    for plan in leaderboard_plans(Scale.TINY, strategies=("multi-io",)):
        (spec,) = plan.specs
        specs.append(RunSpec(spec.kind, {**spec.params, "replicate": 1},
                             spec.cost, spec.label))
    return specs


SPECS = _specs()


def _traced(spec, monkeypatch, *kinds):
    """Run ``spec`` with one tracer of each kind on every runtime it builds."""
    runs = []
    build_into = OOCRuntimeBuilder.build_into

    def observed_build_into(builder, env):
        built = build_into(builder, env)
        tracers = tuple(kind(built.env).install() for kind in kinds)
        runs.append((tracers, built.env.now))
        return built

    monkeypatch.setattr(OOCRuntimeBuilder, "build_into", observed_build_into)
    try:
        out = execute_spec({"kind": spec.kind, "params": spec.params})
    finally:
        monkeypatch.undo()
        for tracers, _ in runs:
            for tracer in tracers:
                tracer.uninstall()
    assert out["ok"], out.get("traceback")
    assert runs, "the spec built no runtime"
    return runs


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.display())
def test_shipped_tracer_matches_the_oracle(spec, monkeypatch):
    runs = _traced(spec, monkeypatch, SpanTracer, EventThreadedSpanTracer)
    for (shipped, oracle), start in runs:
        assert shipped.spans, "the run recorded no spans"
        assert shipped.spans == oracle.spans
        sent = [span for span in shipped.spans
                if span.category is TraceCategory.EXECUTE and span.causes]
        assert sent, "no execute span has a cause"
        end = max(span.end for span in shipped.spans)
        report = critical_path(shipped.spans, start=start, end=end)
        assert report.render() == critical_path(
            oracle.spans, start=start, end=end).render()
        assert sum(report.contributions.values()) == pytest.approx(
            report.makespan, rel=1e-9)


@pytest.mark.parametrize("spec", SPECS[:4], ids=lambda s: s.display())
def test_fused_loop_builds_the_same_dag(spec, monkeypatch):
    # the oracle's on_processing/on_resume turn the kernel's fused resume
    # off; alone, the shipped tracer runs fused and must not notice
    joint = _traced(spec, monkeypatch, SpanTracer, EventThreadedSpanTracer)
    alone = _traced(spec, monkeypatch, SpanTracer)
    assert len(joint) == len(alone)
    for ((_, oracle), _), ((shipped,), _) in zip(joint, alone):
        assert _rebased(shipped.spans) == _rebased(oracle.spans)


def _rebased(spans):
    """``spans`` with task ids counted from the run's first task.

    Task ids come from one process-wide counter, so a second run of the
    same spec numbers its tasks from a later base.
    """
    base = min((span.tid for span in spans if span.tid is not None),
               default=0)
    return [dataclasses.replace(
        span, tid=None if span.tid is None else span.tid - base)
        for span in spans]
