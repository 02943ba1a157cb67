"""Property-based tests of the out-of-core scheduler's invariants.

Hypothesis drives randomized workload shapes (chare counts, block sizes,
HBM capacities, strategies) through a complete prefetch application and
asserts the §IV-B invariants hold in every reachable state:

* every ``[prefetch]`` task executed with all dependences ``INHBM``;
* HBM allocator usage never exceeded capacity;
* reference counts and demand counters drain to zero;
* every intercepted task completed (no lost or duplicated work);
* the run is deterministic.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import OOCRuntimeBuilder
from repro.mem.block import BlockState
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.units import MiB
from tests.mem_oracle import check_registry_invariants

DDR = 4 * 1024 * MiB


class PropWorker(Chare):
    @entry
    def setup(self, nbytes, shared, barrier):
        self.own = self.declare_block("own", nbytes)
        self.shared = shared
        self.states_seen = []
        barrier.contribute()

    @entry(prefetch=True, readwrite=["own"], readonly=["shared"])
    def compute(self, reducer):
        blocks = [self.own] + list(self.shared)
        self.states_seen.append(tuple(b.state for b in blocks))
        duration = yield from self.kernel(flops=5e7, reads=blocks,
                                        writes=[self.own])
        reducer.contribute(duration)


def run_workload(strategy, chares, block_mib, hbm_mib, rounds,
                 shared_blocks):
    built = OOCRuntimeBuilder(
        strategy, cores=4, mcdram_capacity=hbm_mib * MiB,
        ddr_capacity=DDR).build()
    rt = built.runtime
    group = rt.create_node_group()
    shared = [group.share_block(i, block_mib * MiB)
              for i in range(shared_blocks)]
    arr = rt.create_array(PropWorker, chares)
    barrier = rt.reducer(chares)
    arr.broadcast("setup", block_mib * MiB, shared, barrier)
    rt.run_until(barrier.done)
    built.manager.finalize_placement()
    for _ in range(rounds):
        red = rt.reducer(chares)
        arr.broadcast("compute", red)
        rt.run_until(red.done)
    # let asynchronous post-processing (in-flight evictions) settle
    built.env.run()
    return built, arr


WORKLOADS = st.fixed_dictionaries({
    "strategy": st.sampled_from(["single-io", "no-io", "multi-io"]),
    "chares": st.integers(min_value=1, max_value=10),
    "block_mib": st.integers(min_value=1, max_value=12),
    "hbm_mib": st.integers(min_value=48, max_value=160),
    "rounds": st.integers(min_value=1, max_value=2),
    "shared_blocks": st.integers(min_value=0, max_value=2),
})


def _feasible(w):
    # every task must fit in the HBM budget: own + shared blocks
    per_task = (1 + w["shared_blocks"]) * w["block_mib"]
    return per_task < w["hbm_mib"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(w=WORKLOADS.filter(_feasible))
def test_prefetch_invariants_hold(w):
    built, arr = run_workload(**w)

    # 1. every execution saw all dependences in HBM
    for chare in arr:
        assert len(chare.states_seen) == w["rounds"]
        for states in chare.states_seen:
            assert all(s is BlockState.INHBM for s in states)

    # 2. HBM capacity respected at all times
    assert built.machine.hbm.allocator.peak_used <= w["hbm_mib"] * MiB

    # 3. counters drained
    for block in built.machine.registry:
        assert block.refcount == 0
        assert block.demand == 0
        assert not block.moving

    # 4. exactly-once completion
    expected = w["chares"] * w["rounds"]
    assert built.manager.tasks_intercepted == expected
    assert built.manager.tasks_completed == expected

    # 5. registry-wide consistency
    check_registry_invariants(built.machine.registry)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(w=WORKLOADS.filter(_feasible))
def test_runs_are_deterministic(w):
    t1 = run_workload(**w)[0].env.now
    t2 = run_workload(**w)[0].env.now
    assert t1 == t2


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(w=WORKLOADS.filter(_feasible))
def test_conservation_of_bytes(w):
    """Everything fetched was either evicted or is still resident in HBM."""
    built, _ = run_workload(**w)
    strat = built.strategy
    resident = sum(b.nbytes for b in built.machine.registry
                   if b.state is BlockState.INHBM)
    assert strat.bytes_fetched == strat.bytes_evicted + resident
