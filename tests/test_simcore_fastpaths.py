"""The sim-core fast paths: O(1) heap-entry invalidation and slot-based
event callbacks."""

import pytest

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event

from tests import sim_oracle


class TestHeapEntryInvalidation:
    def test_cancelled_entry_never_fires(self):
        env = Environment()
        fired = []
        ev = Event(env, name="victim")
        ev._ok, ev._value = True, None
        ev.add_callback(fired.append)
        entry = env.schedule(ev, delay=1.0)
        assert env.cancel(entry) is True
        env.run()
        assert fired == []
        assert env.now == 0.0  # the dead entry did not advance the clock

    def test_cancel_is_idempotent(self):
        env = Environment()
        ev = Event(env, name="victim")
        ev._ok, ev._value = True, None
        entry = env.schedule(ev, delay=1.0)
        assert env.cancel(entry) is True
        assert env.cancel(entry) is False
        assert env.cancel(entry) is False

    def test_cancel_processed_entry_returns_false(self):
        env = Environment()
        ev = Event(env, name="done")
        ev._ok, ev._value = True, None
        entry = env.schedule(ev)
        env.run()
        assert env.cancel(entry) is False

    def test_live_count_tracks_cancellations(self):
        env = Environment()
        entries = []
        for i in range(5):
            ev = Event(env, name=f"e{i}")
            ev._ok, ev._value = True, None
            entries.append(env.schedule(ev, delay=float(i)))
        assert env._live == 5
        env.cancel(entries[1])
        env.cancel(entries[3])
        assert env._live == 3
        env.run()
        assert env._live == 0

    def test_peek_skips_cancelled_heads(self):
        env = Environment()
        early = Event(env, name="early")
        early._ok, early._value = True, None
        late = Event(env, name="late")
        late._ok, late._value = True, None
        entry = env.schedule(early, delay=1.0)
        env.schedule(late, delay=2.0)
        env.cancel(entry)
        assert sim_oracle.peek(env) == 2.0

    def test_step_with_only_cancelled_entries_raises(self):
        env = Environment()
        ev = Event(env, name="victim")
        ev._ok, ev._value = True, None
        entry = env.schedule(ev, delay=1.0)
        env.cancel(entry)
        with pytest.raises(SimulationError):
            sim_oracle.step(env)

    def test_run_until_deadline_ignores_cancelled(self):
        env = Environment()
        ev = Event(env, name="victim")
        ev._ok, ev._value = True, None
        env.cancel(env.schedule(ev, delay=0.5))
        env.run(until=2.0)
        assert env.now == 2.0

    def test_interleaved_cancel_and_timeout_ordering(self):
        """Cancelling entries must not disturb surviving event order."""
        env = Environment()
        order = []

        def proc(tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc("a", 1.0))
        env.process(proc("b", 2.0))
        doomed = Event(env, name="doomed")
        doomed._ok, doomed._value = True, None
        env.cancel(env.schedule(doomed, delay=1.5))
        env.process(proc("c", 3.0))
        env.run()
        assert order == ["a", "b", "c"]


class TestSlotCallbacks:
    def _triggered(self, env, name=""):
        ev = Event(env, name=name)
        ev._ok, ev._value = True, None
        env.schedule(ev)
        return ev

    def test_single_callback_runs(self):
        env = Environment()
        ev = self._triggered(env)
        got = []
        ev.add_callback(got.append)
        env.run()
        assert got == [ev]

    def test_many_callbacks_run_in_registration_order(self):
        env = Environment()
        ev = self._triggered(env)
        order = []
        for i in range(5):
            ev.add_callback(lambda _e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_callback_added_after_processing_runs_immediately(self):
        env = Environment()
        ev = self._triggered(env)
        env.run()
        got = []
        ev.add_callback(got.append)
        assert got == [ev]

    def test_callbacks_view_before_and_after_processing(self):
        env = Environment()
        ev = self._triggered(env)
        a = lambda e: None  # noqa: E731
        b = lambda e: None  # noqa: E731
        assert ev.callbacks == []
        ev.add_callback(a)
        assert ev.callbacks == [a]
        ev.add_callback(b)
        assert ev.callbacks == [a, b]
        env.run()
        assert ev.callbacks is None

    def test_overflow_list_only_for_second_waiter(self):
        env = Environment()
        ev = Event(env)
        ev.add_callback(lambda e: None)
        assert ev._cbs is None  # one waiter: no list allocated
        ev.add_callback(lambda e: None)
        assert ev._cbs is not None
