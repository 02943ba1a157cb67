"""Tests for less-travelled converse scheduler paths."""

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.errors import EntryMethodError
from repro.machine.knl import build_knl
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.interception import RetryFetch
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment
from repro.units import GiB, MiB


class Simple(Chare):
    @entry
    def hello(self, log):
        log.append(self.runtime.env.now)


class TestConverse:
    def test_bad_run_queue_item_raises(self):
        node = build_knl(Environment(), cores=1, mcdram_capacity=GiB,
                         ddr_capacity=2 * GiB)
        rt = CharmRuntime(node)
        rt.pes[0].run_queue.put("garbage")
        with pytest.raises(EntryMethodError):
            rt.env.run()

    def test_retry_without_interceptor_is_noop(self):
        node = build_knl(Environment(), cores=1, mcdram_capacity=GiB,
                         ddr_capacity=2 * GiB)
        rt = CharmRuntime(node)
        rt.pes[0].run_queue.put(RetryFetch())
        rt.env.run()  # must not raise
        assert rt.pes[0].tasks_executed == 0

    def test_messages_after_retry_still_delivered(self):
        built = OOCRuntimeBuilder("no-io", cores=1, mcdram_capacity=GiB,
                                  ddr_capacity=2 * GiB).build()
        rt = built.runtime
        built.manager.finalize_placement()
        arr = rt.create_array(Simple, 1)
        log = []
        rt.pes[0].run_queue.put(RetryFetch())
        arr.send(0, "hello", log)
        red = rt.reducer(1)
        # drive manually: run until the message got delivered
        rt.env.run(until=1.0)
        assert len(log) == 1

    def test_intercepted_flag_prevents_double_interception(self):
        """A ReadyTask's message must not be intercepted again."""
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
        red = rt.reducer(4)
        arr.broadcast("go", red)
        rt.run_until(red.done)
        assert built.manager.tasks_intercepted == 4  # not 8
