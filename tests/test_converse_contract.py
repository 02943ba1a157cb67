"""The converse delivery contract: what every runtime message guarantees.

These pin the observable behaviour of the message path — send latency,
run-queue FIFO order, per-PE accounting and the three delivery probe
points — for plain entries, generator entries and prefetched
:class:`~repro.runtime.interception.ReadyTask` deliveries, independent
of how the scheduler loop is built.
"""

from __future__ import annotations

import pytest

from repro import hooks as _probe
from repro.core.api import OOCRuntimeBuilder
from repro.machine.knl import build_knl
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.runtime import MESSAGE_LATENCY, CharmRuntime
from repro.sim.environment import Environment
from repro.units import GiB, MiB

LATENCY = MESSAGE_LATENCY


def make_runtime(cores=2):
    node = build_knl(Environment(), cores=cores, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)
    return CharmRuntime(node)


class Worker(Chare):
    def __init__(self):
        super().__init__()
        self.log = []

    @entry
    def plain(self, tag):
        self.log.append((tag, self.runtime.env.now))

    @entry
    def record(self, shared, tag):
        shared.append((tag, self.runtime.env.now))

    @entry
    def timed(self, tag, seconds):
        yield self.runtime.env.timeout(seconds)
        self.log.append((tag, self.runtime.env.now))

    @entry
    def fan_out(self, tags):
        for tag in tags:
            self.send("plain", tag)

    @entry
    def returns_generator(self, seconds):
        # declared plain, but hands back a generator: converse drives it
        return self._later(seconds)

    def _later(self, seconds):
        yield self.runtime.env.timeout(seconds)
        self.log.append(("late", self.runtime.env.now))
        return "done"


class Recorder:
    """Probe subscriber recording the three delivery points verbatim."""

    def __init__(self):
        self.calls = []

    def on_deliver(self, pe, message, task):
        self.calls.append(("deliver", pe.id, message, task))

    def on_execute_begin(self, pe_id, message, task, now):
        self.calls.append(("begin", pe_id, message, task, now))

    def on_execute_end(self, pe_id, message, task, started, now, label):
        self.calls.append(("end", pe_id, message, task, started, now, label))


@pytest.fixture
def recorder():
    rec = Recorder()
    _probe.subscribe(rec)
    try:
        yield rec
    finally:
        _probe.unsubscribe(rec)


def _delivered(calls):
    """message id -> the instant its entry began (``on_execute_begin``)."""
    return {c[2].mid: c[4] for c in calls if c[0] == "begin"}


def _check_probe_triples(calls, messages, tasks=None):
    """deliver, begin, end fire once per message, in that order, consistently."""
    by_message = {}
    for call in calls:
        by_message.setdefault(call[2].mid, []).append(call)
    assert sorted(by_message) == sorted(m.mid for m in messages)
    for msg in messages:
        seq = by_message[msg.mid]
        assert [c[0] for c in seq] == ["deliver", "begin", "end"]
        deliver, begin, end = seq
        pe_id = deliver[1]
        task = deliver[3]
        if tasks is not None:
            assert task is tasks[msg.mid]
        assert begin[1] == end[1] == pe_id
        assert begin[2] is end[2] is msg
        assert begin[3] is task and end[3] is task
        assert begin[4] == end[4]
        assert end[5] >= end[4]
        assert end[6] == f"{msg.target.label}.{msg.entry.name}"


class TestLatency:
    def test_delivery_is_send_plus_latency(self, recorder):
        rt = make_runtime()
        arr = rt.create_array(Worker, 2)
        first = rt.send(arr[0], "plain", "a")
        second = rt.send(arr[1], "plain", "b")
        rt.env.run(until=1.0)
        later = rt.send(arr[0], "plain", "c")
        rt.env.run()
        delivered = _delivered(recorder.calls)
        assert delivered[first.mid] == delivered[second.mid] == LATENCY
        assert delivered[later.mid] == 1.0 + LATENCY

    def test_sends_from_inside_an_entry_carry_the_latency(self):
        rt = make_runtime(cores=1)
        arr = rt.create_array(Worker, 1)
        rt.send(arr[0], "fan_out", ["x", "y"])
        rt.env.run()
        assert [tag for tag, _ in arr[0].log] == ["x", "y"]
        assert [t for _, t in arr[0].log] == [LATENCY + LATENCY] * 2


class TestOrdering:
    def test_same_instant_sends_to_one_pe_run_fifo(self):
        rt = make_runtime(cores=1)
        arr = rt.create_array(Worker, 3)
        shared = []
        tags = ["a", "b", "c", "d", "e", "f"]
        for i, tag in enumerate(tags):
            rt.send(arr[i % 3], "record", shared, tag)
        rt.env.run()
        # every message lands at the same instant; run order is send order
        assert shared == [(tag, LATENCY) for tag in tags]

    def test_fifo_holds_behind_a_busy_entry(self):
        rt = make_runtime(cores=1)
        arr = rt.create_array(Worker, 1)
        rt.send(arr[0], "timed", "slow", 1.0)
        for tag in ("p", "q", "r"):
            rt.send(arr[0], "plain", tag)
        rt.env.run()
        assert [tag for tag, _ in arr[0].log] == ["slow", "p", "q", "r"]
        assert {t for _, t in arr[0].log} == {LATENCY + 1.0}


class TestAccounting:
    def test_counts_per_pe(self):
        rt = make_runtime(cores=2)
        arr = rt.create_array(Worker, 4)
        for i in range(4):
            rt.send(arr[i], "plain", i)
        rt.send(arr[1], "timed", "t", 0.25)
        rt.send(arr[0], "fan_out", ["u", "v"])
        rt.env.run()
        # round-robin map: elements 0, 2 on pe0; 1, 3 on pe1
        assert [pe.messages_delivered for pe in rt.pes] == [5, 3]
        assert [pe.tasks_executed for pe in rt.pes] == [5, 3]
        assert rt.messages_sent == 8
        assert rt.pes[1].busy_time == pytest.approx(0.25)

    def test_plain_entry_returning_a_generator_is_driven(self):
        rt = make_runtime(cores=1)
        arr = rt.create_array(Worker, 1)
        rt.send(arr[0], "returns_generator", 0.5)
        rt.send(arr[0], "plain", "after")
        rt.env.run()
        assert [tag for tag, _ in arr[0].log] == ["late", "after"]
        assert arr[0].log[0][1] == pytest.approx(LATENCY + 0.5)
        assert rt.pes[0].tasks_executed == 2
        assert rt.pes[0].busy_time == pytest.approx(0.5)


class TestDeliveryProbes:
    def test_plain_and_generator_entries(self, recorder):
        rt = make_runtime(cores=2)
        arr = rt.create_array(Worker, 2)
        msgs = [rt.send(arr[0], "plain", "a"),
                rt.send(arr[1], "timed", "b", 0.125),
                rt.send(arr[0], "returns_generator", 0.25)]
        rt.env.run()
        _check_probe_triples(recorder.calls, msgs,
                             tasks={m.mid: None for m in msgs})
        delivered = _delivered(recorder.calls)
        assert all(t == LATENCY for t in delivered.values())
        ends = {c[2].mid: c for c in recorder.calls if c[0] == "end"}
        assert ends[msgs[0].mid][5] == ends[msgs[0].mid][4]
        assert ends[msgs[1].mid][5] == pytest.approx(
            delivered[msgs[1].mid] + 0.125)
        assert ends[msgs[2].mid][5] == pytest.approx(
            delivered[msgs[2].mid] + 0.25)

    def test_ready_tasks(self, recorder):
        built = OOCRuntimeBuilder("multi-io", cores=2, mcdram_capacity=GiB,
                                  ddr_capacity=2 * GiB).build()
        rt = built.runtime

        class W(Chare):
            @entry
            def setup(self, barrier):
                self.d = self.declare_block("d", MiB)
                barrier.contribute()

            @entry(prefetch=True, readwrite=["d"])
            def go(self, red):
                yield from self.kernel(flops=1e6, reads=[self.d],
                                       writes=[self.d])
                red.contribute()

        arr = rt.create_array(W, 4)
        barrier = rt.reducer(4)
        arr.broadcast("setup", barrier)
        rt.run_until(barrier.done)
        built.manager.finalize_placement()
        recorder.calls.clear()
        red = rt.reducer(4)
        sent_before = rt.messages_sent
        arr.broadcast("go", red)
        rt.run_until(red.done)
        assert rt.messages_sent - sent_before == 4
        msgs = {c[2].mid: c[2] for c in recorder.calls}
        assert len(msgs) == 4
        tasks = {c[2].mid: c[3] for c in recorder.calls
                 if c[0] == "deliver"}
        assert all(task is not None for task in tasks.values())
        assert all(task.message is msgs[mid] for mid, task in tasks.items())
        _check_probe_triples(recorder.calls, list(msgs.values()), tasks)
        assert built.manager.tasks_intercepted == 4
        assert sum(pe.tasks_executed for pe in rt.pes) == 8
        assert sum(pe.messages_delivered for pe in rt.pes) == 8
