"""Unit tests for MetricsRegistry, the push-path oracle and the fold."""

import pytest

from repro import hooks as probe
from repro.metrics.instruments import Counter, Gauge, PolledGauge
from repro.metrics.registry import MetricsRegistry
from tests.metrics_oracle import MetricsSubscriber


class TestChildMemoization:
    def test_same_labels_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_moves_total", src="mcdram", dst="ddr4")
        b = reg.counter("repro_moves_total", src="mcdram", dst="ddr4")
        assert a is b

    def test_kwarg_order_does_not_split_children(self):
        # labels are sorted into the key, so differently-ordered call
        # sites share one child
        reg = MetricsRegistry()
        a = reg.counter("repro_moves_total", src="mcdram", dst="ddr4")
        b = reg.counter("repro_moves_total", dst="ddr4", src="mcdram")
        assert a is b

    def test_different_labels_different_children(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_moves_total", src="mcdram")
        b = reg.counter("repro_moves_total", src="ddr4")
        assert a is not b
        assert len(reg.instruments()) == 2

    def test_base_labels_stamped_on_every_child(self):
        reg = MetricsRegistry(strategy="multi-io", app="stencil")
        c = reg.counter("repro_moves_total", src="mcdram")
        assert dict(c.labels) == {"app": "stencil", "src": "mcdram",
                                  "strategy": "multi-io"}

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(TypeError):
            reg.gauge("repro_thing")

    def test_polled_vs_push_gauge_conflict(self):
        reg = MetricsRegistry()
        reg.observe("repro_depth", lambda: 1.0)
        with pytest.raises(TypeError):
            reg.gauge("repro_depth")

    def test_invalid_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("9starts_with_digit")

    def test_get_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.get("repro_moves_total") is None
        reg.counter("repro_moves_total")
        assert isinstance(reg.get("repro_moves_total"), Counter)
        assert len(reg.instruments()) == 1


class TestClockWiring:
    def test_gauges_share_the_registry_clock(self):
        now = [0.0]
        reg = MetricsRegistry(clock=lambda: now[0])
        g = reg.gauge("repro_depth")
        g.set(10)
        now[0] = 2.0
        g.set(0)
        now[0] = 4.0
        assert g.time_weighted_mean() == pytest.approx(5.0)


class TestCollection:
    def test_total_sums_a_family(self):
        reg = MetricsRegistry()
        reg.counter("repro_moves_total", src="a").inc(2)
        reg.counter("repro_moves_total", src="b").inc(3)
        reg.counter("repro_other_total").inc(100)
        assert reg.total("repro_moves_total") == 5.0

    def test_flatten_samples_polled_gauges(self):
        backing = [7]
        reg = MetricsRegistry()
        reg.observe("repro_depth", lambda: backing[0])
        flat = reg.flatten()
        assert flat["repro_depth"] == 7.0
        backing[0] = 9
        assert reg.flatten()["repro_depth"] == 9.0

    def test_flatten_histogram_contributes_count_and_sum(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat_seconds", src="a").observe(0.5)
        flat = reg.flatten()
        assert flat['repro_lat_seconds_count{src="a"}'] == 1.0
        assert flat['repro_lat_seconds_sum{src="a"}'] == 0.5

    def test_instruments_sorted(self):
        reg = MetricsRegistry()
        reg.counter("repro_b")
        reg.counter("repro_a")
        assert [i.name for i in reg.instruments()] == ["repro_a", "repro_b"]


class TestHooksSlot:
    def test_default_is_none(self):
        assert probe.on_fetch is None and probe.on_move_end is None

    def test_install_uninstall_cycle(self):
        sub = MetricsSubscriber(MetricsRegistry())
        sub.subscribe()
        try:
            assert probe.on_fetch == sub.on_fetch
            # re-subscribing the same subscriber is fine
            sub.subscribe()
            assert probe.on_fetch == sub.on_fetch
        finally:
            sub.unsubscribe()
        assert probe.on_fetch is None
        # idempotent
        sub.unsubscribe()

    def test_uninstall_of_foreign_registry_is_a_noop(self):
        sub = MetricsSubscriber(MetricsRegistry()).subscribe()
        try:
            MetricsSubscriber(MetricsRegistry()).unsubscribe()
            assert probe.on_fetch == sub.on_fetch
        finally:
            sub.unsubscribe()

    def test_fetch_outcomes_are_counted_per_lane(self):
        from repro.core.api import OOCRuntimeBuilder
        from repro.metrics import MetricsSession

        built = OOCRuntimeBuilder("multi-io", cores=2).build()
        with MetricsSession(built) as session:
            for point in (probe.on_fetch_hit, probe.on_fetch_joined,
                          probe.on_fetch_issued, probe.on_fetch_canceled):
                point(None, "io0")
            probe.on_fetch_hit(None, "io1")
        reg = session.registry
        assert reg.total("repro_prefetch_hits_total") == 2
        assert reg.counter("repro_prefetch_hits_total", lane="io1").value == 1
        for name in ("joined", "issued", "canceled"):
            assert reg.total(f"repro_prefetch_{name}_total") == 1


def test_polled_and_push_gauge_kinds():
    reg = MetricsRegistry()
    assert isinstance(reg.observe("repro_a", lambda: 0.0), PolledGauge)
    g = reg.gauge("repro_b")
    assert isinstance(g, Gauge) and not isinstance(g, PolledGauge)
