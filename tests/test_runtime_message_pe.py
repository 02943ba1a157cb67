"""Unit tests for Message metadata and PE accounting."""

from repro.machine.knl import build_knl
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.message import Message
from repro.runtime.pe import PE
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment


class Thing(Chare):
    @entry
    def poke(self):
        pass


def make_pe():
    env = Environment()
    return env, PE(env, 0)


class TestMessage:
    def test_unique_ids(self):
        # numbered per run by the runtime that sends them
        def sent_ids(count):
            runtime = CharmRuntime(build_knl(Environment(), cores=1))
            chare = runtime.create_array(Thing, 1)[0]
            return [runtime.send(chare, "poke").mid for _ in range(count)]

        first = sent_ids(3)
        assert len(set(first)) == 3
        assert sent_ids(3) == first

    def test_repr_includes_target_and_entry(self):
        chare = Thing()
        text = repr(Message(7, chare, Thing._entry_specs["poke"]))
        assert "poke" in text and "#7" in text


class TestPE:
    def test_wait_queue_fifo_and_requeue(self):
        _, pe = make_pe()
        pe.wait_enqueue("a")
        pe.wait_enqueue("b")
        assert pe.wait_dequeue() == "a"
        pe.wait_requeue_front("a")
        assert pe.wait_dequeue() == "a"
        assert len(pe.wait_queue) == 1

    def test_empty_dequeue_returns_none(self):
        _, pe = make_pe()
        assert pe.wait_dequeue() is None

    def test_idle_time_accounting(self):
        env, pe = make_pe()
        pe.started_at = 0.0
        env.run(until=10.0)
        pe.busy_time += 4.0
        pe.note_overhead(1.0)
        assert pe.wall_time == env.now == 10.0
        assert pe.idle_time == 5.0

    def test_wall_time_zero_before_start(self):
        _, pe = make_pe()
        assert pe.wall_time == 0.0
