"""Unit tests for the environment / run loop."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.environment import Environment

from tests import sim_oracle


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_run_to_time_advances_clock(self, env):
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_into_past_rejected(self, env):
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class TestRunLoop:
    def test_run_drains_queue(self, env):
        fired = []
        for delay in (3.0, 1.0, 2.0):
            env.timeout(delay).add_callback(lambda e, d=delay: fired.append(d))
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_same_time_events_fifo(self, env):
        order = []
        for i in range(5):
            env.timeout(1.0).add_callback(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            sim_oracle.step(env)

    def test_peek_empty_is_inf(self, env):
        assert sim_oracle.peek(env) == float("inf")

    def test_peek_returns_next_time(self, env):
        env.timeout(4.0)
        env.timeout(2.0)
        assert sim_oracle.peek(env) == 2.0

    def test_run_until_event_returns_value(self, env):
        ev = env.event()
        env.timeout(1.0).add_callback(lambda e: ev.succeed("payload"))
        assert env.run(until=ev) == "payload"
        assert env.now == 1.0

    def test_run_until_unreachable_event_deadlocks(self, env):
        never = env.event()
        env.timeout(1.0)
        with pytest.raises(DeadlockError):
            env.run(until=never)

    def test_deadlock_lists_waiting_processes(self, env):
        def stuck(env):
            yield env.event()  # never fires

        env.process(stuck(env), name="stuck-proc")
        never = env.event()
        with pytest.raises(DeadlockError) as exc_info:
            env.run(until=never)
        assert "stuck-proc" in exc_info.value.waiting

    def test_run_until_failed_event_raises(self, env):
        ev = env.event()
        env.timeout(1.0).add_callback(lambda e: ev.fail(KeyError("k")))
        with pytest.raises(KeyError):
            env.run(until=ev)

    def test_run_until_time_leaves_later_events(self, env):
        fired = []
        env.timeout(5.0).add_callback(lambda e: fired.append(5))
        env.run(until=2.0)
        assert fired == []
        env.run()
        assert fired == [5]
