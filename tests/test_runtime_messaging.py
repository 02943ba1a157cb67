"""Integration tests: messaging, converse delivery, reductions, placement."""

import pytest

from repro.errors import RuntimeModelError
from repro.machine.knl import build_knl
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.loadbalance import block_cyclic_map, round_robin_map
from repro.runtime.reduction import Reducer
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment
from repro.units import GiB


def make_runtime(cores=4, **kwargs):
    node = build_knl(Environment(), cores=cores, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)
    return CharmRuntime(node, **kwargs)


class Echo(Chare):
    @entry
    def setup(self):
        self.log = []

    @entry
    def ping(self, value, reducer):
        self.log.append((value, self.runtime.env.now))
        reducer.contribute(value)

    @entry
    def timed(self, reducer):
        yield self.runtime.env.timeout(0.5)
        reducer.contribute(self.runtime.env.now)


class TestMessaging:
    def test_send_delivers_after_latency(self):
        rt = make_runtime(message_latency=3e-6)
        arr = rt.create_array(Echo, 1)
        arr.broadcast("setup")
        red = rt.reducer(1)
        arr.send(0, "ping", 42, red)
        rt.run_until(red.done)
        assert arr[0].log[0][0] == 42
        # both messages sent at t=0 arrive after one latency; FIFO order
        # guarantees setup ran first
        assert arr[0].log[0][1] == pytest.approx(3e-6)

    def test_broadcast_reaches_all(self):
        rt = make_runtime()
        arr = rt.create_array(Echo, 10)
        arr.broadcast("setup")
        red = rt.reducer(10, combiner=sum)
        arr.broadcast("ping", 1, red)
        total = rt.run_until(red.done)
        assert total == 10

    def test_generator_entries_consume_time(self):
        rt = make_runtime()
        arr = rt.create_array(Echo, 2)
        arr.broadcast("setup")
        red = rt.reducer(2, combiner=max)
        arr.broadcast("timed", red)
        finish = rt.run_until(red.done)
        assert finish == pytest.approx(0.5, abs=1e-4)

    def test_same_pe_messages_serialize(self):
        """Two timed entries on one PE run back to back (one worker)."""
        rt = make_runtime(cores=1)
        arr = rt.create_array(Echo, 2)  # both chares on pe0
        arr.broadcast("setup")
        red = rt.reducer(2, combiner=max)
        arr.broadcast("timed", red)
        finish = rt.run_until(red.done)
        assert finish == pytest.approx(1.0, abs=1e-4)

    def test_foreign_chare_rejected(self):
        rt1, rt2 = make_runtime(), make_runtime()
        arr = rt1.create_array(Echo, 1)
        from repro.errors import ChareError
        with pytest.raises(ChareError):
            rt2.send(arr[0], "setup")

    def test_pe_accounting(self):
        rt = make_runtime(cores=1)
        arr = rt.create_array(Echo, 1)
        arr.broadcast("setup")
        red = rt.reducer(1)
        arr.broadcast("timed", red)
        rt.run_until(red.done)
        pe = rt.pes[0]
        assert pe.tasks_executed == 2
        assert pe.busy_time == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("latency", [-1e-6, float("nan"), float("inf"),
                                         float("-inf")])
    def test_bad_message_latency_rejected(self, latency):
        with pytest.raises(RuntimeModelError,
                           match=f"message_latency .*{latency!r}"):
            make_runtime(message_latency=latency)

    def test_zero_latency_puts_synchronously(self):
        rt = make_runtime(cores=1, message_latency=0.0)
        arr = rt.create_array(Echo, 1)
        rt.send(arr[0], "setup")
        # no event in between: the message is already on the run queue
        assert len(rt.pes[0].run_queue) == 1


class TestReducer:
    def test_fires_at_expected_count(self):
        env = Environment()
        red = Reducer(env, 3)
        red.contribute(1)
        red.contribute(2)
        assert not red.complete
        red.contribute(3)
        assert red.complete

    def test_combiner_applied(self):
        env = Environment()
        red = Reducer(env, 2, combiner=max)
        red.contribute(5)
        red.contribute(9)
        env.run()
        assert red.done.value == 9

    def test_no_combiner_returns_list(self):
        env = Environment()
        red = Reducer(env, 2)
        red.contribute("a")
        red.contribute("b")
        env.run()
        assert red.done.value == ["a", "b"]

    def test_over_contribution_rejected(self):
        env = Environment()
        red = Reducer(env, 1)
        red.contribute()
        with pytest.raises(RuntimeModelError):
            red.contribute()

    def test_zero_expected_rejected(self):
        with pytest.raises(RuntimeModelError):
            Reducer(Environment(), 0)


class TestLoadBalanceMaps:
    def test_round_robin_covers_all_pes(self):
        indices = [(i,) for i in range(10)]
        mapping = round_robin_map(indices, 4)
        assert set(mapping.values()) == {0, 1, 2, 3}

    def test_block_cyclic_2d_tiles(self):
        indices = [(i, j) for i in range(8) for j in range(8)]
        mapping = block_cyclic_map(indices, 4)  # 2x2 PE grid
        # chares (0,0),(0,2) share a PE; (0,0),(0,1) do not
        assert mapping[(0, 0)] == mapping[(0, 2)]
        assert mapping[(0, 0)] != mapping[(0, 1)]
        assert set(mapping.values()) == {0, 1, 2, 3}

    def test_block_cyclic_falls_back_for_non_2d(self):
        indices = [(i,) for i in range(6)]
        assert block_cyclic_map(indices, 3) == round_robin_map(indices, 3)

    def test_zero_pes_rejected(self):
        for fn in (round_robin_map, block_cyclic_map):
            with pytest.raises(RuntimeModelError):
                fn([(0,)], 0)
