"""Integration tests for the scheduling strategies on a tiny workload.

Uses a minimal prefetch application (one block per chare, one compute
round) to assert the per-strategy invariants of §IV-B:

* prefetch tasks only execute with every dependence ``INHBM``;
* HBM capacity is never exceeded;
* refcounts gate eviction;
* strategy-specific behaviours (who fetches, who evicts, signalling).
"""

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.core.strategies import STRATEGIES, make_strategy
from repro.errors import ConfigError
from repro.mem.block import BlockState
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.sim.environment import Environment
from repro.trace.events import TraceCategory
from repro.trace.tracer import Tracer
from repro.units import GiB, MiB
from tests.mem_oracle import check_registry_invariants

HBM = 256 * MiB
DDR = 2 * GiB


class Worker(Chare):
    @entry
    def setup(self, nbytes, barrier):
        self.data = self.declare_block("data", nbytes)
        self.resident_at_compute = None
        barrier.contribute()

    @entry(prefetch=True, readwrite=["data"])
    def compute(self, reducer):
        self.resident_at_compute = self.data.state
        duration = yield from self.kernel(
            flops=1e8, reads=[self.data], writes=[self.data])
        reducer.contribute(duration)


def run_app(strategy, *, chares=16, block=32 * MiB, rounds=2, cores=4,
            env=None, **builder_kwargs):
    builder = OOCRuntimeBuilder(strategy, cores=cores, mcdram_capacity=HBM,
                                ddr_capacity=DDR, **builder_kwargs)
    built = builder.build_into(Environment() if env is None else env)
    rt = built.runtime
    arr = rt.create_array(Worker, chares)
    barrier = rt.reducer(chares)
    arr.broadcast("setup", block, barrier)
    rt.run_until(barrier.done)
    built.manager.finalize_placement()
    for _ in range(rounds):
        red = rt.reducer(chares)
        arr.broadcast("compute", red)
        rt.run_until(red.done)
    return built, arr


def traced_lanes(strategy, category, **kwargs):
    """Lanes of ``category`` intervals, from a Tracer subscribed to run_app."""
    env = Environment()
    tracer = Tracer(env).install()
    try:
        run_app(strategy, env=env, **kwargs)
    finally:
        tracer.uninstall()
    return {e.lane for e in tracer.events if e.category is category}


PREFETCH_STRATEGIES = ["single-io", "no-io", "multi-io"]
ALL_STRATEGIES = list(STRATEGIES)


class TestRegistryOfStrategies:
    def test_registry_contents(self):
        assert set(STRATEGIES) == {"naive", "ddr-only", "hbm-only",
                                   "single-io", "no-io", "multi-io",
                                   "static-guided", "phase-guided"}

    def test_make_strategy_by_name(self):
        assert make_strategy("multi-io").name == "multi-io"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("magic")


@pytest.mark.parametrize("strategy", PREFETCH_STRATEGIES)
class TestPrefetchInvariants:
    def test_all_tasks_execute_from_hbm(self, strategy):
        built, arr = run_app(strategy)
        assert all(c.resident_at_compute is BlockState.INHBM for c in arr)

    def test_all_tasks_complete(self, strategy):
        built, arr = run_app(strategy, rounds=3)
        assert built.manager.tasks_completed == 3 * len(arr)
        assert built.manager.tasks_intercepted == built.manager.tasks_completed

    def test_hbm_capacity_never_exceeded(self, strategy):
        built, _ = run_app(strategy)
        assert built.machine.hbm.allocator.peak_used <= HBM

    def test_initial_placement_all_ddr(self, strategy):
        """'data is allocated on DDR4 and fetched into MCDRAM' (§V-B)."""
        built = OOCRuntimeBuilder(strategy, cores=2, mcdram_capacity=HBM,
                                  ddr_capacity=DDR).build()
        rt = built.runtime
        arr = rt.create_array(Worker, 4)
        barrier = rt.reducer(4)
        arr.broadcast("setup", MiB, barrier)
        rt.run_until(barrier.done)
        built.manager.finalize_placement()
        assert all(c.data.state is BlockState.INDDR for c in arr)

    def test_fetch_and_evict_traffic_happened(self, strategy):
        built, _ = run_app(strategy)
        assert built.strategy.fetches > 0
        assert built.strategy.bytes_fetched > 0

    def test_registry_invariants_after_run(self, strategy):
        built, _ = run_app(strategy)
        check_registry_invariants(built.machine.registry)

    def test_refcounts_drain_to_zero(self, strategy):
        built, arr = run_app(strategy)
        assert all(c.data.refcount == 0 for c in arr)
        assert all(c.data.demand == 0 for c in arr)

    def test_oversized_task_rejected(self, strategy):
        # no schedule can run a task larger than the budget: a bad config
        with pytest.raises(ConfigError, match="decompose further"):
            run_app(strategy, chares=2, block=HBM + MiB)

    def test_deterministic_repeat(self, strategy):
        t1 = run_app(strategy)[0].env.now
        t2 = run_app(strategy)[0].env.now
        assert t1 == t2


class TestStaticStrategies:
    def test_naive_fills_hbm_then_spills(self):
        built, arr = run_app("naive", chares=16, block=32 * MiB)
        states = [c.data.state for c in arr]
        assert states.count(BlockState.INHBM) == 8   # 256 MiB / 32 MiB
        assert states.count(BlockState.INDDR) == 8
        assert built.strategy.fetches == 0

    def test_ddr_only_places_everything_on_ddr(self):
        built, arr = run_app("ddr-only")
        assert all(c.data.state is BlockState.INDDR for c in arr)

    def test_hbm_only_requires_fit(self):
        with pytest.raises(ConfigError, match="mcdram"):
            run_app("hbm-only", chares=16, block=32 * MiB)  # 512 > 256 MiB

    def test_hbm_only_places_everything_in_hbm(self):
        built, arr = run_app("hbm-only", chares=4, block=32 * MiB)
        assert all(c.data.state is BlockState.INHBM for c in arr)

    def test_static_strategies_never_intercept(self):
        for name in ("naive", "ddr-only", "hbm-only"):
            built, _ = run_app(name, chares=4, block=16 * MiB)
            assert built.manager.tasks_intercepted == 0


class TestStrategySpecifics:
    def test_single_io_serialises_fetches(self):
        """One IO thread: fetch count equals total, all on lane io0."""
        lanes = traced_lanes("single-io", TraceCategory.IO_FETCH)
        assert lanes == {"io0"}

    def test_multi_io_spreads_fetches(self):
        lanes = traced_lanes("multi-io", TraceCategory.IO_FETCH, cores=4)
        assert len(lanes) > 1

    def test_no_io_fetches_on_worker_lanes(self):
        fetch_lanes = traced_lanes("no-io", TraceCategory.PREPROCESS_FETCH)
        assert fetch_lanes and all(l.startswith("pe") for l in fetch_lanes)

    def test_no_io_charges_worker_overhead(self):
        built, _ = run_app("no-io")
        assert sum(pe.overhead_time for pe in built.runtime.pes) > 0

    def test_node_level_run_queue_option(self):
        built, arr = run_app("multi-io", node_level_run_queue=True)
        assert all(c.resident_at_compute is BlockState.INHBM for c in arr)
