"""Tests for the repro.lint runtime sanitizer ("simsan").

Three layers: injected violations must be detected *at the violation site*;
clean integration runs (Stencil3D, MatMul) must finish with zero
violations; and the PR 1 bug classes (stuck-MOVING rollback, double
``stop()``, zero-PE setup) must stay fixed when re-run under the sanitizer.
"""

import pytest

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.errors import AllocationError, BlockStateError, ConfigError
from repro import hooks as probe
from repro.lint import SimSanitizer
from repro.lint.findings import LintViolation
from repro.machine.knl import build_knl
from repro.mem.allocator import FreeListAllocator
from repro.mem.block import BlockState
from repro.sim.environment import Environment
from repro.units import GiB, MiB

HBM = 256 * MiB
DDR = 2 * GiB


@pytest.fixture
def node():
    return build_knl(Environment(), mcdram_capacity=64 * MiB,
                     ddr_capacity=GiB)


@pytest.fixture
def san():
    sanitizer = SimSanitizer(mode="record").install()
    yield sanitizer
    sanitizer.uninstall()


def place(node, name, nbytes, device):
    block = node.registry.declare(name, nbytes)
    node.topology.place_block(block, device)
    return block


def rules(sanitizer):
    return [v.rule for v in sanitizer.violations]


def build(strategy="multi-io", cores=4):
    return OOCRuntimeBuilder(strategy, cores=cores, mcdram_capacity=HBM,
                             ddr_capacity=DDR).build()


class TestLifecycle:
    def test_install_uninstall_clears_hook_slot(self):
        sanitizer = SimSanitizer().install()
        assert probe.on_retain == sanitizer.on_retain
        sanitizer.uninstall()
        assert probe.on_retain is None

    def test_second_observer_fans_out(self, san):
        # probe points are shared: a second sanitizer joins a fan-out
        # rather than being rejected (full coverage in test_hooks_multi)
        other = SimSanitizer().install()
        assert probe.on_retain.__name__ == "fan_out"
        other.uninstall()
        assert probe.on_retain == san.on_retain

    def test_context_manager(self):
        with SimSanitizer() as sanitizer:
            assert probe.on_retain == sanitizer.on_retain
        assert probe.on_retain is None

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SimSanitizer(mode="loud")

    def test_off_by_default(self):
        assert probe.on_retain is None


class TestInjectedViolations:
    def test_san202_retain_after_evict(self, node, san):
        block = place(node, "b", MiB, node.hbm)
        node.topology.release_block(block)
        block.retain()
        assert rules(san) == ["SAN202"]
        assert san.violations[0].block == "b"

    def test_san202_kernel_use_after_evict(self, node, san):
        block = place(node, "b", MiB, node.hbm)
        node.topology.release_block(block)
        proc = node.env.process(
            node.run_kernel_on_blocks(0.0, [block], []))
        node.env.run(until=proc)
        assert "SAN202" in rules(san)
        assert "use-after-evict" in san.violations[0].message

    def test_san202_kernel_read_of_midmove_block(self, node, san):
        block = place(node, "b", MiB, node.ddr)
        node.env.process(node.mover.move(block, node.hbm))
        node.env.run(until=1e-5)  # move started, not finished
        assert block.moving
        proc = node.env.process(
            node.run_kernel_on_blocks(0.0, [block], []))
        node.env.run(until=proc)
        assert "SAN202" in rules(san)

    def test_san203_double_free(self, node, san):
        block = place(node, "b", MiB, node.hbm)
        allocation = block.allocation
        node.topology.release_block(block)
        with pytest.raises(AllocationError):
            node.hbm.free(allocation)
        assert rules(san) == ["SAN203"]

    def test_san207_refcount_underflow(self, node, san):
        block = place(node, "b", MiB, node.hbm)
        with pytest.raises(BlockStateError):
            block.release()
        assert rules(san) == ["SAN207"]

    def test_raise_mode_stops_at_the_violation_site(self, node):
        block = place(node, "b", MiB, node.hbm)
        with SimSanitizer(mode="raise") as sanitizer:
            with pytest.raises(LintViolation) as exc_info:
                block.release()
        assert exc_info.value.rule == "SAN207"
        assert sanitizer.violations[0].rule == "SAN207"


class TestQuiescenceChecks:
    @pytest.fixture
    def bound(self):
        built = build()
        sanitizer = SimSanitizer(mode="record").install(built.manager)
        yield built, sanitizer
        sanitizer.uninstall()

    def test_clean_manager_is_quiescent(self, bound):
        built, sanitizer = bound
        assert built.manager.check_quiescent() == 0
        assert sanitizer.violations == []

    def test_san201_refcount_leak(self, bound):
        built, sanitizer = bound
        block = place(built.machine, "b", MiB, built.machine.ddr)
        block.retain()
        assert built.manager.check_quiescent() == 1
        assert rules(sanitizer) == ["SAN201"]
        assert sanitizer.violations[0].at is not None

    def test_san205_stuck_moving(self, bound):
        built, sanitizer = bound
        block = place(built.machine, "b", MiB, built.machine.ddr)
        block.begin_move()  # abandoned: no mover will ever settle it
        assert built.manager.check_quiescent() >= 1
        assert "SAN205" in rules(sanitizer)

    def test_san206_inflight_move_at_shutdown(self, bound):
        built, sanitizer = bound
        block = place(built.machine, "b", MiB, built.machine.ddr)
        built.manager.begin_inflight(block)
        built.manager.check_quiescent()
        assert "SAN206" in rules(sanitizer)

    def test_san208_event_queue_conservation_drift(self, bound,
                                                    monkeypatch):
        built, sanitizer = bound
        env = built.machine.env
        env.run()  # reach quiescence first: the drain loop has its own net
        # so the sweep's own drain must not trip that net
        monkeypatch.setattr(type(env), "run", lambda self: None)
        env._live += 1  # corrupt the live-event counter
        try:
            sanitizer.check_quiescent(built.manager)
        finally:
            env._live -= 1
        assert "SAN208" in rules(sanitizer)

    def test_san208_silent_on_clean_run(self, bound):
        """A real run through the new event core conserves its entries."""
        built, sanitizer = bound
        cfg = StencilConfig(total_bytes=8 * MiB, block_bytes=MiB,
                            iterations=1)
        Stencil3D(built, cfg).run()
        built.manager.check_quiescent()
        assert "SAN208" not in rules(sanitizer)

    def test_san204_books_vs_registry_mismatch(self, bound):
        built, sanitizer = bound
        place(built.machine, "b", MiB, built.machine.hbm)
        built.machine.hbm.allocator.used = 0  # corrupt the books
        sanitizer.check_now()
        assert "SAN204" in rules(sanitizer)

    def test_san204_books_over_capacity(self, bound):
        built, sanitizer = bound
        allocator = built.machine.hbm.allocator
        allocator.used = allocator.capacity + 1
        sanitizer.check_now()
        assert "SAN204" in rules(sanitizer)

    def test_drain_settles_inflight_background_evictions(self, bound):
        """A move legitimately in flight at the barrier is not 'stuck'."""
        built, sanitizer = bound
        block = place(built.machine, "b", MiB, built.machine.ddr)
        built.machine.env.process(
            built.machine.mover.move(block, built.machine.hbm))
        # without drain the block would still be MOVING mid-simulation;
        # check_quiescent(drain=True) runs the event queue dry first
        assert built.manager.check_quiescent() == 0
        assert block.state is BlockState.INHBM


class TestCleanIntegrationRuns:
    def test_stencil_multi_io_zero_violations(self):
        with SimSanitizer(mode="raise") as sanitizer:
            built = build("multi-io", cores=8)
            sanitizer.bind(built.manager)
            cfg = StencilConfig(total_bytes=512 * MiB, block_bytes=32 * MiB,
                                iterations=2)
            Stencil3D(built, cfg).run()
            assert built.manager.check_quiescent() == 0
        assert sanitizer.violations == []
        assert sanitizer.events_observed > 0

    def test_matmul_single_io_zero_violations(self):
        with SimSanitizer(mode="raise") as sanitizer:
            built = build("single-io", cores=8)
            sanitizer.bind(built.manager)
            cfg = MatMulConfig.for_working_set(128 * MiB, block_dim=64)
            MatMul(built, cfg).run()
            assert built.manager.check_quiescent() == 0
        assert sanitizer.violations == []


class TestPR1RegressionsUnderSanitizer:
    def test_fragmentation_rollback_leaves_no_stuck_moving(self, san):
        """PR 1 bug class: a mid-move CapacityError must roll the block
        back — the sanitizer must see a settle for every begin_move."""
        env = Environment()
        node = build_knl(env, mcdram_capacity=3 * MiB, ddr_capacity=GiB,
                         allocator_cls=FreeListAllocator)
        a = place(node, "a", MiB, node.hbm)
        b = place(node, "b", MiB, node.hbm)
        c = place(node, "c", MiB, node.hbm)
        node.topology.release_block(a)
        node.topology.release_block(c)
        big = place(node, "big", 2 * MiB - 4096, node.ddr)
        for move in (node.mover.move, node.mover.move_migrate_pages):
            proc = env.process(move(big, node.hbm))
            with pytest.raises(Exception):
                env.run(until=proc)
            assert not big.moving
        assert san.violations == []
        assert san._moving_since == {}

    def test_drained_run_is_quiescent(self, san):
        built = build("multi-io")
        san.bind(built.manager)
        built.env.run()
        assert built.manager.check_quiescent() == 0

    def test_zero_pe_setup_fails_loudly_with_sanitizer_active(self, san):
        from types import SimpleNamespace

        from repro.core.strategies import make_strategy

        class Manager(SimpleNamespace):
            """A fake manager the strategy can hold weakly."""

        strategy = make_strategy("multi-io")
        with pytest.raises(ConfigError, match="at least one PE"):
            strategy.attach(Manager(env=Environment(), pes=[]))
        assert san.violations == []
