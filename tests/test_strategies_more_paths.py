"""Remaining strategy code paths: stop(), retries, edge conditions."""

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.core.strategies import MultiIOThreadStrategy, make_strategy
from repro.errors import SchedulingError
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
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


class TestStop:
    def test_single_io_stop_kills_io_thread(self):
        built = run_once("single-io")
        proc = built.strategy.io_process
        assert proc.is_alive
        built.strategy.stop()
        built.env.run()
        assert not proc.is_alive

    def test_multi_io_stop_kills_all(self):
        built = run_once("multi-io")
        built.strategy.stop()
        built.env.run()
        assert all(not p.is_alive for p in built.strategy.io_processes)

    def test_base_stop_is_noop(self):
        built = run_once("naive")
        built.strategy.stop()  # must not raise


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

    def test_no_io_parked_counter(self):
        built = run_once("no-io", chares=32)
        # 32 x 8 MiB = 256 MiB against a 128 MiB HBM: some tasks must park
        assert built.strategy.parked_tasks > 0

    def test_single_io_scan_passes_counted(self):
        built = run_once("single-io")
        assert built.strategy.scan_passes > 0
