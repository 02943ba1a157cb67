"""Remaining strategy code paths: stop(), retries, edge conditions."""

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.core.strategies import (MultiIOThreadStrategy,
                                   SingleIOThreadStrategy, make_strategy)
from repro.errors import SchedulingError
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.pe import PE
from repro.units import GiB, MiB

HBM = 128 * MiB
DDR = 1 * GiB


class W(Chare):
    @entry
    def setup(self, nbytes, barrier):
        self.d = self.declare_block("d", nbytes)
        barrier.contribute()

    @entry(prefetch=True, readwrite=["d"])
    def go(self, red):
        yield from self.kernel(flops=1e7, reads=[self.d], writes=[self.d])
        red.contribute()


def run_once(strategy, chares=8, block=8 * MiB, **kwargs):
    built = OOCRuntimeBuilder(strategy, cores=4, mcdram_capacity=HBM,
                              ddr_capacity=DDR,
                              **kwargs).build()
    rt = built.runtime
    arr = rt.create_array(W, chares)
    barrier = rt.reducer(chares)
    arr.broadcast("setup", block, barrier)
    rt.run_until(barrier.done)
    built.manager.finalize_placement()
    red = rt.reducer(chares)
    arr.broadcast("go", red)
    rt.run_until(red.done)
    return built


class TestDetachedStrategy:
    def test_unattached_strategy_rejects_use(self):
        strategy = make_strategy("multi-io")
        with pytest.raises(SchedulingError):
            strategy._mgr()

    def test_prefetch_ahead_bounds_run_queue_depth(self):
        class Shallow(MultiIOThreadStrategy):
            prefetch_ahead = 1

        built = run_once(Shallow())
        assert built.manager.tasks_completed == 8


class TestStrategyCounters:
    def test_fetch_evict_byte_totals_consistent(self):
        built = run_once("multi-io", chares=16)
        built.env.run()  # drain in-flight evictions
        strat = built.strategy
        assert strat.bytes_fetched % (8 * MiB) == 0
        assert strat.fetches == strat.bytes_fetched // (8 * MiB)

    def test_no_io_parked_counter(self, monkeypatch):
        parked = []
        enqueue = PE.wait_enqueue
        monkeypatch.setattr(PE, "wait_enqueue", lambda pe, task: (
            parked.append(task), enqueue(pe, task)))
        run_once("no-io", chares=32)
        # 32 x 8 MiB = 256 MiB against a 128 MiB HBM: some tasks must park
        assert parked

    def test_single_io_scan_passes_counted(self, monkeypatch):
        passes = []
        scan = SingleIOThreadStrategy._scan_once

        def counted(strategy, pes):
            passes.append(1)
            return scan(strategy, pes)
        monkeypatch.setattr(SingleIOThreadStrategy, "_scan_once", counted)
        run_once("single-io")
        assert passes
