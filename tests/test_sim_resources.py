"""Unit tests for the FIFO store behind the run queues."""

import pytest

from repro.sim.environment import Environment
from repro.sim.resources import Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("x")
        ev = store.get()
        assert ev.triggered and ev.value == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        ev = store.get()
        assert not ev.triggered
        store.put("y")
        assert ev.triggered and ev.value == "y"

    def test_fifo_item_order(self, env):
        store = Store(env)
        for i in range(5):
            store.put(i)
        assert [store.get().value for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_fifo_getter_order(self, env):
        store = Store(env)
        first, second = store.get(), store.get()
        store.put("a")
        store.put("b")
        assert first.value == "a" and second.value == "b"

    def test_put_event_delivers_the_event_value(self, env):
        """The delayed put ``CharmRuntime.send`` arms on a latency timeout."""
        store = Store(env)
        getter = store.get()
        env.timeout(1.0, "msg")._cb0 = store.put_event
        env.run()
        assert getter.value == "msg" and env.now == 1.0
        env.timeout(1.0, "late")._cb0 = store.put_event
        env.run()
        assert store.items == ("late",)

    def test_len_and_items(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        assert len(store) == 2
        assert store.items == ("a", "b")
