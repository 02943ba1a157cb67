"""End-to-end: a stencil run under MetricsSession.

The acceptance-critical property: the pushed ``repro_hbm_used_bytes``
gauge is updated at exactly the points the manager samples its
``occupancy_log``, so its high-water mark must agree with the
``occupancy_stats`` peak of the same run.
"""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro import hooks as probe
from repro.metrics import MetricsSession
from repro.trace.occupancy import occupancy_stats
from repro.units import MiB


def _build(strategy="multi-io", trace=True):
    return OOCRuntimeBuilder(strategy, cores=8,
                             mcdram_capacity=64 * MiB,
                             ddr_capacity=512 * MiB,
                             trace=trace).build()


@pytest.fixture
def run():
    built = _build()
    session = MetricsSession(built, app="stencil", cadence=0.01)
    cfg = StencilConfig(total_bytes=128 * MiB, block_bytes=8 * MiB,
                        iterations=2)
    Stencil3D(built, cfg).run()
    session.finish()
    return built, session


class TestHbmAgreement:
    def test_hwm_gauge_equals_occupancy_peak(self, run):
        built, session = run
        manager = built.manager
        assert manager.occupancy_log, "run must have logged occupancy"
        gauge = session.registry.get("repro_hbm_used_bytes")
        assert gauge is not None
        peak_bytes = max(used for _, used in manager.occupancy_log)
        assert gauge.high_water == peak_bytes
        stats = occupancy_stats(manager.occupancy_log,
                                built.machine.hbm.capacity)
        assert gauge.high_water / built.machine.hbm.capacity == \
            pytest.approx(stats["peak"])


class TestCountersMatchStrategy:
    def test_fetch_counters_agree_with_strategy_stats(self, run):
        built, session = run
        reg = session.registry
        strategy = built.manager.strategy
        assert reg.total("repro_fetched_bytes_total") == \
            strategy.bytes_fetched
        assert reg.total("repro_evictions_total") == strategy.evictions

    def test_mover_counters_agree_with_mover(self, run):
        built, session = run
        reg = session.registry
        mover = built.machine.mover
        assert reg.total("repro_moves_total") == mover.moves_completed
        assert reg.total("repro_moved_bytes_total") == mover.bytes_moved

    def test_inflight_gauge_is_consistent(self, run):
        # speculative prefetches may still be mid-move when the app's
        # last task completes, so the gauge need not end at zero — but it
        # can never go negative and the high-water mark bounds it
        built, session = run
        gauge = session.registry.get("repro_moves_inflight")
        assert gauge is not None
        assert gauge.low_water >= 0.0
        assert gauge.high_water >= max(1.0, gauge.value)

    def test_eviction_reasons_labelled(self, run):
        _, session = run
        reasons = {dict(i.labels).get("reason")
                   for i in session.registry.instruments()
                   if i.name == "repro_evictions_total"}
        # multi-io evicts synchronously after each task (the paper's
        # post-processing step)
        assert "post-task" in reasons


class TestPolledBindings:
    def test_tier_gauges_present_for_both_tiers(self, run):
        _, session = run
        tiers = {dict(i.labels).get("tier")
                 for i in session.registry.instruments()
                 if i.name == "repro_mem_used_bytes"}
        assert tiers == {"mcdram", "ddr4"}

    def test_pe_time_accounting_sampled(self, run):
        built, session = run
        total_busy = session.registry.total("repro_pe_busy_seconds")
        expected = sum(pe.busy_time for pe in built.runtime.pes)
        assert total_busy == pytest.approx(expected)

    def test_recorder_took_cadence_snapshots(self, run):
        _, session = run
        assert session.recorder.snapshots_taken >= 3
        assert session.recorder.stopped_at is not None


class TestSessionLifecycle:
    def test_hook_slot_released_after_finish(self, run):
        assert probe.on_fetch is None

    def test_finish_idempotent(self, run):
        _, session = run
        before = session.recorder.snapshots_taken
        session.finish()
        assert session.recorder.snapshots_taken == before

    def test_context_manager_releases_on_error(self):
        built = _build(trace=False)
        with pytest.raises(RuntimeError):  # noqa: SIM117 - deliberate nesting
            with MetricsSession(built, app="t") as session:
                assert probe.on_fetch == session.subscriber.on_fetch
                raise RuntimeError("boom")
        assert probe.on_fetch is None
        built.runtime.shutdown()

    def test_disabled_run_records_nothing(self):
        built = _build(trace=False)
        cfg = StencilConfig(total_bytes=32 * MiB, block_bytes=8 * MiB,
                            iterations=1)
        Stencil3D(built, cfg).run()
        assert probe.on_fetch is None  # nothing subscribed, nothing leaked
