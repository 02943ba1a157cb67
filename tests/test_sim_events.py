"""Unit tests for the DES event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.environment import Environment


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_carries_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.value == 42
        env.run()
        assert ev.processed

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_propagates_to_run(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_swallowed(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        env.run()  # does not raise

    def test_callback_after_processing_runs_immediately(self, env):
        ev = env.event()
        ev.succeed("x")
        env.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_callbacks_run_in_registration_order(self, env):
        ev = env.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.succeed()
        env.run()
        assert order == [1, 2]


class TestTimeout:
    def test_fires_at_delay(self, env):
        t = env.timeout(2.5)
        env.run()
        assert t.processed
        assert env.now == 2.5

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_carries_value(self, env):
        t = env.timeout(1.0, value="done")
        env.run()
        assert t.value == "done"

    def test_zero_delay_fires_now(self, env):
        t = env.timeout(0.0)
        env.run()
        assert t.processed
        assert env.now == 0.0


class TestAllOf:
    def test_waits_for_all(self, env):
        a, b = env.timeout(1.0), env.timeout(3.0)
        both = env.all_of([a, b])
        env.run(until=both)
        assert env.now == 3.0

    def test_value_maps_children(self, env):
        a = env.timeout(1.0, value="a")
        b = env.timeout(2.0, value="b")
        both = env.all_of([a, b])
        result = env.run(until=both)
        assert result[a] == "a"
        assert result[b] == "b"

    def test_empty_fires_immediately(self, env):
        ev = env.all_of([])
        assert ev.triggered

    def test_child_failure_fails_condition(self, env):
        good = env.timeout(5.0)
        bad = env.event()
        bad.fail(RuntimeError("child"))
        cond = env.all_of([good, bad])
        with pytest.raises(RuntimeError, match="child"):
            env.run(until=cond)

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([env.timeout(1), other.timeout(1)])
