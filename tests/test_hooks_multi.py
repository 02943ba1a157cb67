"""The probe: per-point binding, fan-out, coexistence, metrics equivalence."""

import gc
import json
from pathlib import Path

import pytest

from repro import hooks as probe

DIGESTS = Path(__file__).parent / "fixtures" / "probe_metrics_digests.json"


class Recorder:
    def __init__(self):
        self.calls = []

    def on_retain(self, block):
        self.calls.append(("retain", block))
        return "ignored"

    def on_release(self, block):
        self.calls.append(("release", block))


class RetainOnly:
    def __init__(self):
        self.calls = []

    def on_retain(self, block):
        self.calls.append(("retain", block))


@pytest.fixture
def subscribed():
    """Subscribe observers for one test; unsubscribe them afterwards."""
    observers = []

    def subscribe(*objs):
        for obj in objs:
            probe.subscribe(obj)
            observers.append(obj)

    yield subscribe
    for obj in observers:
        probe.unsubscribe(obj)
    assert probe.on_retain is None and probe.on_release is None


class TestFanOut:
    def test_dispatches_in_install_order(self, subscribed):
        order = []
        a, b = Recorder(), Recorder()
        a.on_retain = lambda blk: order.append("a")
        b.on_retain = lambda blk: order.append("b")
        subscribed(a, b)
        probe.on_retain("blk")
        assert order == ["a", "b"]

    def test_skips_observers_missing_the_method(self, subscribed):
        a, b = Recorder(), RetainOnly()
        subscribed(a, b)
        # RetainOnly has no on_release: the point binds a alone
        assert probe.on_release == a.on_release
        probe.on_release("blk")
        assert a.calls == [("release", "blk")]
        assert b.calls == []

    def test_drops_return_values(self, subscribed):
        subscribed(Recorder(), Recorder())
        assert probe.on_retain("blk") is None


class TestHookSlot:
    """Each catalogued point behaves as one slot: None, one method, fan-out."""

    def test_publishes_none_single_fanout(self):
        a, b = Recorder(), Recorder()
        assert probe.on_retain is None
        probe.subscribe(a)
        try:
            assert probe.on_retain == a.on_retain  # sole method: no fan-out
            probe.subscribe(b)
            assert probe.on_retain.__name__ == "fan_out"
            probe.unsubscribe(b)
            assert probe.on_retain == a.on_retain
        finally:
            probe.unsubscribe(b)
            probe.unsubscribe(a)
        assert probe.on_retain is None

    def test_install_is_idempotent_per_object(self, subscribed):
        a = Recorder()
        subscribed(a)
        probe.subscribe(a)
        assert probe.on_retain == a.on_retain
        probe.on_retain("blk")
        assert a.calls == [("retain", "blk")]

    def test_install_none_raises(self):
        with pytest.raises(TypeError):
            probe.subscribe(None)

    def test_uninstall_unknown_observer_is_noop(self, subscribed):
        a = Recorder()
        subscribed(a)
        probe.unsubscribe(Recorder())
        assert probe.on_retain == a.on_retain

    def test_unsubscribing_one_leaves_the_others_bound(self, subscribed):
        a, b, c = Recorder(), RetainOnly(), Recorder()
        subscribed(a, b, c)
        probe.unsubscribe(a)
        probe.on_retain("blk")
        probe.on_release("blk")
        assert a.calls == []
        assert b.calls == [("retain", "blk")]
        assert c.calls == [("retain", "blk"), ("release", "blk")]

    def test_unimplemented_point_stays_none(self, subscribed):
        subscribed(Recorder(), RetainOnly())
        assert probe.on_retain is not None
        for point in probe.CATALOGUE:
            if point not in ("on_retain", "on_release"):
                assert getattr(probe, point) is None, point

    def test_non_catalogue_methods_are_not_published(self, subscribed):
        class Extra(Recorder):
            def on_something_else(self):
                pass
        subscribed(Extra())
        assert not hasattr(probe, "on_something_else")


class TestSubsystemSlots:
    def test_lint_slot_is_shared(self):
        from repro.lint import SimSanitizer
        from repro.race import RaceSanitizer

        simsan = SimSanitizer().install()
        racesan = RaceSanitizer().install()
        try:
            assert probe.on_retain.__name__ == "fan_out"
            # simsan alone implements the settle point: no fan-out there
            assert probe.on_settle == simsan.on_settle
            # racesan alone implements the sim-core points
            assert probe.on_scheduled == racesan.on_scheduled
        finally:
            racesan.uninstall()
            simsan.uninstall()
        assert probe.on_retain is None and probe.on_scheduled is None

    def test_two_metrics_subscribers_coexist(self):
        from repro.metrics import MetricsRegistry, MetricsSubscriber

        first = MetricsSubscriber(MetricsRegistry()).subscribe()
        second = MetricsSubscriber(MetricsRegistry()).subscribe()
        try:
            probe.on_fetch_issued(None, "io0")
        finally:
            second.unsubscribe()
            first.unsubscribe()
        for sub in (first, second):
            assert sub.registry.total("repro_prefetch_issued_total") == 1
        assert probe.on_fetch_issued is None


class TestThreeObserverCoexistence:
    """simsan + racesan + metrics active in one run, none steps on another."""

    def test_all_three_observe_one_stencil_run(self):
        from repro.apps.stencil3d import Stencil3D, StencilConfig
        from repro.core.api import OOCRuntimeBuilder
        from repro.lint import SimSanitizer
        from repro.metrics import MetricsRegistry, MetricsSubscriber
        from repro.race import RaceSanitizer
        from repro.sim.environment import Environment

        env = Environment()
        simsan = SimSanitizer(mode="record").install()
        racesan = RaceSanitizer().install(env)
        registry = MetricsRegistry(clock=lambda: env.now)
        metrics = MetricsSubscriber(registry).subscribe()
        try:
            assert probe.on_move_end.__name__ == "fan_out"
            built = OOCRuntimeBuilder(
                "multi-io", cores=8, mcdram_capacity=128 << 20,
                ddr_capacity=1 << 30, trace=False).build_into(env)
            cfg = StencilConfig(total_bytes=256 << 20, block_bytes=16 << 20,
                                iterations=1)
            Stencil3D(built, cfg).run()
            simsan.check_quiescent(built.manager)
        finally:
            metrics.unsubscribe()
            racesan.uninstall()
            simsan.uninstall()
        assert simsan.violations == []
        assert racesan.findings == []
        assert racesan.accesses_observed > 0
        assert racesan.events_observed > 0
        names = {inst.name for inst in registry.instruments()}
        assert "repro_prefetch_issued_total" in names
        # everything unwound: every point is None again
        assert all(getattr(probe, point) is None for point in probe.CATALOGUE)


class TestMetricsDigestEquivalence:
    """The subscriber reproduces the digests of the former in-line metrics.

    The expected digests were recorded from the same runs when every
    metric update still sat at its call site; the float values must match
    exactly, not approximately.
    """

    expected = json.loads(DIGESTS.read_text())

    @pytest.fixture(autouse=True)
    def _collect_dropped_runtimes(self):
        # an unfinished runtime dropped by an earlier test still holds
        # suspended strategy generators; finalizing them mid-run runs
        # their ``finally`` blocks, whose end_inflight fires probe points
        # into this test's subscriber.  Collect them up front.
        gc.collect()

    def test_stencil_multi_io(self):
        from repro.apps.stencil3d import Stencil3D, StencilConfig
        from repro.core.api import OOCRuntimeBuilder
        from repro.metrics import MetricsSession, digest
        from repro.units import MiB

        built = OOCRuntimeBuilder("multi-io", cores=8,
                                  mcdram_capacity=64 * MiB,
                                  ddr_capacity=512 * MiB).build()
        with MetricsSession(built, app="stencil", cadence=0.01) as session:
            Stencil3D(built, StencilConfig(total_bytes=128 * MiB,
                                           block_bytes=8 * MiB,
                                           iterations=2)).run()
        assert digest(session.registry) == self.expected["stencil_multi_io"]

    def test_matmul_multi_io(self):
        from repro.apps.matmul import MatMul, MatMulConfig
        from repro.core.api import OOCRuntimeBuilder
        from repro.metrics import MetricsSession, digest
        from repro.units import MiB

        built = OOCRuntimeBuilder("multi-io", cores=8,
                                  mcdram_capacity=32 * MiB,
                                  ddr_capacity=1024 * MiB,
                                  trace=False).build()
        with MetricsSession(built, app="matmul", cadence=0.01) as session:
            MatMul(built, MatMulConfig.for_working_set(
                64 * MiB, block_dim=64)).run()
        assert digest(session.registry) == self.expected["matmul_multi_io"]

    def test_mover_rollback_and_alloc_failures(self):
        from repro.errors import CapacityError
        from repro.machine.knl import build_knl
        from repro.mem.allocator import FreeListAllocator
        from repro.mem.block import DataBlock
        from repro.metrics import MetricsRegistry, MetricsSubscriber, digest
        from repro.sim.environment import Environment
        from repro.units import GiB, MiB

        env = Environment()
        registry = MetricsRegistry(clock=lambda: env.now)
        metrics = MetricsSubscriber(registry).subscribe()
        try:
            node = build_knl(env, mcdram_capacity=3 * MiB, ddr_capacity=GiB,
                             allocator_cls=FreeListAllocator)

            def place(name, nbytes, device):
                block = DataBlock(name, nbytes)
                node.registry.register(block)
                node.topology.place_block(block, device)
                return block

            a = place("a", MiB, node.hbm)
            b = place("b", MiB, node.hbm)
            c = place("c", MiB, node.hbm)
            node.topology.release_block(a)
            node.topology.release_block(c)
            big = place("big", 2 * MiB - 4096, node.ddr)
            # two free MiB, not contiguous: both move kinds roll back
            for move in (node.mover.move, node.mover.move_migrate_pages):
                with pytest.raises(CapacityError):
                    env.run(until=env.process(move(big, node.hbm)))
            env.run(until=env.process(node.mover.move(b, node.ddr)))
        finally:
            metrics.unsubscribe()
        assert digest(registry) == self.expected["mover_rollback"]
