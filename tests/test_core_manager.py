"""Tests for the OOC manager: interception protocol, accounting, wiring."""

from itertools import count

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.core.manager import OOCManager
from repro.core.strategies import make_strategy
from repro.errors import RuntimeModelError, SchedulingError
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.units import GiB, MiB

#: numbers for blocks made outside a block registry
BIDS = count()

HBM = 256 * MiB
DDR = 2 * GiB


class Worker(Chare):
    @entry
    def setup(self, nbytes, barrier):
        self.data = self.declare_block("data", nbytes)
        barrier.contribute()

    @entry(prefetch=True, readwrite=["data"])
    def compute(self, reducer):
        duration = yield from self.kernel(flops=1e8, reads=[self.data],
                                        writes=[self.data])
        reducer.contribute(duration)

    @entry
    def plain(self, reducer):
        reducer.contribute()


def build(strategy="multi-io", env=None, **kwargs):
    builder = OOCRuntimeBuilder(strategy, cores=4, mcdram_capacity=HBM,
                                ddr_capacity=DDR, **kwargs)
    return builder.build() if env is None else builder.build_into(env)


class TestWiring:
    def test_double_interceptor_rejected(self):
        built = build()
        with pytest.raises(RuntimeModelError):
            OOCManager(built.runtime, make_strategy("no-io"))

    def test_wants_only_prefetch_entries(self):
        built = build()
        rt = built.runtime
        arr = rt.create_array(Worker, 2)
        from repro.runtime.message import Message
        chare = arr[(0,)]
        prefetch_msg = Message(0, chare, chare.entry_spec("compute"))
        plain_msg = Message(1, chare, chare.entry_spec("plain"))
        assert built.manager.wants(prefetch_msg)
        assert not built.manager.wants(plain_msg)

    def test_static_strategy_never_wants(self):
        built = build("naive")
        rt = built.runtime
        arr = rt.create_array(Worker, 1)
        from repro.runtime.message import Message
        chare = arr[(0,)]
        msg = Message(0, chare, chare.entry_spec("compute"))
        assert not built.manager.wants(msg)

    def test_prefetch_before_placement_rejected(self):
        built = build()
        rt = built.runtime
        arr = rt.create_array(Worker, 1)
        barrier = rt.reducer(1)
        arr.broadcast("setup", MiB, barrier)
        rt.run_until(barrier.done)
        red = rt.reducer(1)
        arr.broadcast("compute", red)  # placement NOT finalized
        with pytest.raises(SchedulingError):
            rt.run_until(red.done)

    def test_double_finalize_rejected(self):
        built = build()
        built.manager.finalize_placement()
        with pytest.raises(SchedulingError):
            built.manager.finalize_placement()


class TestAccountingAndSummary:
    def run_once(self, strategy="multi-io", chares=8, block=16 * MiB,
                 **kwargs):
        built = build(strategy, **kwargs)
        rt = built.runtime
        arr = rt.create_array(Worker, chares)
        barrier = rt.reducer(chares)
        arr.broadcast("setup", block, barrier)
        rt.run_until(barrier.done)
        built.manager.finalize_placement()
        red = rt.reducer(chares)
        arr.broadcast("compute", red)
        rt.run_until(red.done)
        return built

    def test_summary_fields(self):
        built = self.run_once()
        summary = built.manager.summary()
        assert summary["tasks_intercepted"] == 8
        assert summary["tasks_completed"] == 8
        assert summary["fetches"] >= 8
        assert summary["hbm_peak_used"] > 0

    def test_queue_lock_cost_traced(self):
        from repro.sim.environment import Environment
        from repro.trace.events import TraceCategory
        from repro.trace.tracer import Tracer
        env = Environment()
        tracer = Tracer(env).install()
        try:
            self.run_once(env=env)
        finally:
            tracer.uninstall()
        assert sum(ev.duration for ev in tracer.events
                   if ev.category is TraceCategory.SCHEDULING) > 0

    def test_demand_counters_drain(self):
        built = self.run_once()
        for block in built.machine.registry:
            assert block.demand == 0
            assert block.refcount == 0


class TestInflightRegistry:
    def test_begin_end_inflight(self):
        built = build()
        from repro.mem.block import DataBlock
        block = DataBlock("b", MiB, bid=next(BIDS))
        ev = built.manager.begin_inflight(block)
        assert not ev.triggered
        built.manager.end_inflight(block, ev)
        assert ev.triggered

    def test_double_begin_rejected(self):
        built = build()
        from repro.mem.block import DataBlock
        block = DataBlock("b", MiB, bid=next(BIDS))
        built.manager.begin_inflight(block)
        with pytest.raises(SchedulingError):
            built.manager.begin_inflight(block)

    def test_inflight_event_after_completion_is_fired(self):
        built = build()
        from repro.mem.block import DataBlock
        block = DataBlock("b", MiB, bid=next(BIDS))
        ev = built.manager.inflight_event(block)  # nothing in flight
        assert ev.triggered
