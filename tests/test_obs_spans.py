"""SpanTracer: span collection, lanes, and the causal edge kinds."""

import pytest

from repro.apps.spmv import SpMV, SpMVConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.obs import SpanTracer
from repro import hooks as probe
from repro.trace.events import TraceCategory
from repro.units import GiB, MiB


def traced_run(strategy="multi-io", **cfg):
    built = OOCRuntimeBuilder(strategy, cores=8,
                              mcdram_capacity=128 * MiB,
                              ddr_capacity=2 * GiB).build()
    tracer = SpanTracer(built.env).install()
    try:
        config = StencilConfig(total_bytes=cfg.get("total", 256 * MiB),
                               block_bytes=cfg.get("block", 16 * MiB),
                               iterations=cfg.get("iterations", 2))
        Stencil3D(built, config).run()
    finally:
        tracer.uninstall()
    return tracer


def _by_sid(tracer):
    return {span.sid: span for span in tracer.spans}


@pytest.fixture(scope="module")
def multi_io():
    return traced_run("multi-io")


class TestCollection:
    def test_records_execute_fetch_evict_spans(self, multi_io):
        cats = {span.category for span in multi_io.spans}
        assert TraceCategory.EXECUTE in cats
        assert TraceCategory.IO_FETCH in cats
        assert TraceCategory.IO_EVICT in cats

    def test_lanes_split_workers_from_io_threads(self, multi_io):
        lanes = {ev.lane for ev in multi_io.tracer.events}
        assert any(lane.startswith("pe") for lane in lanes)
        assert any(lane.startswith("io") for lane in lanes)

    def test_sids_unique_and_indexed(self, multi_io):
        sids = [span.sid for span in multi_io.spans]
        assert len(sids) == len(set(sids))
        # a finished run closed every span it opened: the ids are dense
        assert sorted(sids) == list(range(len(sids)))

    def test_spans_are_closed_intervals(self, multi_io):
        assert all(span.end >= span.start for span in multi_io.spans)

    def test_makespan_envelope(self, multi_io):
        # the spans cover exactly the envelope of the recorded log
        start = min(s.start for s in multi_io.spans)
        end = max(s.end for s in multi_io.spans)
        assert start <= end
        events = multi_io.tracer.events
        assert (start, end) == (min(ev.start for ev in events),
                                max(ev.end for ev in events))

    def test_execute_spans_carry_entry_method_labels(self, multi_io):
        labels = {s.label for s in multi_io.spans
                  if s.category is TraceCategory.EXECUTE}
        assert any(".compute_kernel" in label for label in labels)

    def test_fetch_spans_name_their_block(self, multi_io):
        fetches = [s for s in multi_io.spans
                   if s.category is TraceCategory.IO_FETCH]
        assert fetches and all(s.block for s in fetches)


class TestCausality:
    def test_execute_spans_have_send_parents(self, multi_io):
        execs = [s for s in multi_io.spans
                 if s.category is TraceCategory.EXECUTE]
        with_causes = [s for s in execs if s.causes]
        # everything after the bootstrap broadcast is caused by a send
        assert len(with_causes) > len(execs) / 2

    def test_causes_resolve_to_recorded_spans(self, multi_io):
        by_sid = _by_sid(multi_io)
        for span in multi_io.spans:
            for cause in span.causes:
                assert cause in by_sid
                assert cause != span.sid

    def test_parent_is_one_of_the_causes(self, multi_io):
        for span in multi_io.spans:
            if span.parent is not None:
                assert span.parent in span.causes

    def test_fetch_to_execute_edges_exist(self, multi_io):
        fetch_sids = {s.sid for s in multi_io.spans
                      if s.category is TraceCategory.IO_FETCH}
        exec_causes = {c for s in multi_io.spans
                       if s.category is TraceCategory.EXECUTE
                       for c in s.causes}
        assert fetch_sids & exec_causes

    def test_cross_lane_edges_exist(self, multi_io):
        by_sid = _by_sid(multi_io)
        crossed = [
            (by_sid[c].lane, s.lane)
            for s in multi_io.spans for c in s.causes
            if by_sid[c].lane != s.lane
        ]
        assert crossed, "expected at least one cross-lane causal edge"

    def test_causes_precede_effects(self, multi_io):
        # a cause starts no later than its effect ends (HB edges cannot
        # point backward in simulated time)
        by_sid = _by_sid(multi_io)
        for span in multi_io.spans:
            for cause in span.causes:
                assert by_sid[cause].start <= span.end


class TestSpMVCausality:
    def test_shared_vector_fetches_parent_executes(self):
        built = OOCRuntimeBuilder("multi-io", cores=8,
                                  mcdram_capacity=128 * MiB,
                                  ddr_capacity=1 * GiB).build()
        tracer = SpanTracer(built.env).install()
        try:
            SpMV(built, SpMVConfig(block_rows=16, block_bytes=8 * MiB,
                                   vector_bytes=MiB, couplings=2,
                                   iterations=1)).run()
        finally:
            tracer.uninstall()
        fetch_sids = {s.sid for s in tracer.spans
                      if s.category is TraceCategory.IO_FETCH}
        exec_causes = {c for s in tracer.spans
                       if s.category is TraceCategory.EXECUTE
                       for c in s.causes}
        assert fetch_sids & exec_causes


class TestLifecycle:
    def test_uninstall_clears_both_slots(self):
        traced_run("multi-io", iterations=1)
        assert probe.on_fetch is None
        assert probe.on_send is None
        assert probe.on_reduce is None

    def test_subscribes_to_no_sim_core_point(self):
        # the kernel's fused resume path stays on while spans are traced
        for point in ("on_scheduled", "on_descheduled", "on_processing",
                      "on_resume", "on_handoff_put", "on_handoff_get"):
            assert not hasattr(SpanTracer, point), point

    def test_disabled_run_records_nothing(self):
        built = OOCRuntimeBuilder("multi-io", cores=4,
                                  mcdram_capacity=64 * MiB,
                                  ddr_capacity=1 * GiB).build()
        Stencil3D(built, StencilConfig(total_bytes=64 * MiB,
                                       block_bytes=16 * MiB,
                                       iterations=1)).run()
        assert probe.on_fetch is None

    def test_no_io_strategy_uses_pe_lanes(self):
        tracer = traced_run("no-io", iterations=1)
        cats = {span.category for span in tracer.spans}
        assert TraceCategory.PREPROCESS_FETCH in cats
        fetch_lanes = {s.lane for s in tracer.spans
                       if s.category is TraceCategory.PREPROCESS_FETCH}
        assert all(lane.startswith("pe") for lane in fetch_lanes)
