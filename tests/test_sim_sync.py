"""Unit tests for the IO threads' wake-up gate."""

import pytest

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
