"""Unit tests for the IO threads' wake-up gate."""

from types import SimpleNamespace

import pytest

from repro.core.strategies.multi_io import MultiIOThreadStrategy
from repro.sim.environment import Environment
from repro.sim.sync import Gate


@pytest.fixture
def env():
    return Environment()


class TestGate:
    def test_closed_gate_blocks(self, env):
        gate = Gate(env)
        assert not gate.wait().triggered

    def test_open_latches_for_future_waiters(self, env):
        gate = Gate(env)
        gate.open()
        assert gate.wait().triggered  # signal before wait is NOT lost

    def test_open_wakes_current_waiters(self, env):
        gate = Gate(env)
        waiters = [gate.wait() for _ in range(3)]
        gate.open()
        assert all(w.triggered for w in waiters)

    def test_close_stops_latching(self, env):
        gate = Gate(env)
        gate.open()
        gate.close()
        assert not gate.wait().triggered

    def test_io_thread_wakeup_pattern(self, env):
        """The §IV-B protocol: worker signals, IO thread must not miss it."""
        gate = Gate(env)
        log = []

        def io_thread(env, gate):
            for _ in range(2):
                gate.close()
                yield gate.wait()
                log.append(("io-woke", env.now))

        def worker(env, gate):
            yield env.timeout(1.0)
            gate.open()   # signal while IO is awake or asleep - either is safe
            yield env.timeout(1.0)
            gate.open()

        env.process(io_thread(env, gate))
        env.process(worker(env, gate))
        env.run()
        assert log == [("io-woke", 1.0), ("io-woke", 2.0)]


class TestMultiIOBroadcast:
    """A completion's wake broadcast over every PE's gate."""

    def broadcast(self, env, parked, local):
        strategy = MultiIOThreadStrategy()
        strategy.gates = {i: Gate(env, f"g{i}") for i in range(4)}
        log = []

        def io_thread(gate):
            yield gate.wait()
            log.append(gate.name)

        for i in parked:
            env.process(io_thread(strategy.gates[i]))
        env.run()
        assert log == []
        strategy._wake_after_evict(SimpleNamespace(id=local))
        env.run()
        return strategy.gates, log

    def test_parked_waiters_resume_in_gate_order(self, env):
        _, log = self.broadcast(env, parked=(3, 0, 2), local=2)
        assert log == ["g2", "g0", "g3"]  # the local PE's thread first

    def test_gate_without_waiter_is_only_latched(self, env):
        gates, log = self.broadcast(env, parked=(0, 2), local=0)
        assert log == ["g0", "g2"]
        assert all(gate.is_open for gate in gates.values())
        assert gates[1].wait().triggered  # its thread will not park

    def test_wait_event_name(self, env):
        assert Gate(env, "io").wait().name == "io.wait"
