"""Component memo: replay correctness, invalidation, oracle check.

The memo replays cached max-min rates for previously seen component
configurations.  Correctness rests on two claims these tests pin down:

* rates depend only on the component *structure* (capacities and how
  many flows of each (weight, cap, links) class cross each link) — never
  on remaining bytes, arrival order or which links changed — so a
  repeated phase may replay, and the replayed vector is what the kernel
  would recompute bit-for-bit;
* any mutation of that structure changes the key, so stale entries
  can never be served (content keying subsumes invalidation).

The eager oracle never memoizes: the replay scenario is cross-checked
against :class:`EagerFluidNetwork` timelines and rates, and against the
shipped solver with the memo bypassed.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.environment import Environment
from repro.sim.fluid import _MEMO_MAX, FluidNetwork
from tests.fluid_oracle import EagerFluidNetwork, UnmemoizedFluidNetwork


def _run_phases(network_cls, seed: int,
                phases: int = 5, repeats: int = 3):
    """Run a randomized phase alphabet ``repeats`` times; return the trace.

    The trace records, per phase instance, the solved rate vector at
    arrival and every flow's completion instant — everything the memo
    could corrupt if it replayed a wrong vector.
    """
    rng = random.Random(seed)
    env = Environment()
    net = network_cls(env)
    links = [net.add_link(f"l{i}", rng.choice([50e9, 80e9, 100e9]))
             for i in range(4)]
    alphabet = []
    for _ in range(phases):
        alphabet.append([
            (rng.uniform(1e6, 5e8),
             rng.sample(range(len(links)), rng.randint(1, 2)),
             rng.choice([1.0, 2.0, 4.0]),
             rng.choice([5e9, 12e9, math.inf]))
            for _ in range(rng.randint(2, 6))])
    trace = []
    for _ in range(repeats):
        for spec in alphabet:
            started = [net.start_flow(nbytes, [links[i] for i in lidx],
                                      weight=w, max_rate=cap)
                       for nbytes, lidx, w, cap in spec]
            rates = tuple(f.rate for f in started)  # settles the solve
            env.run(env.all_of([f.done for f in started]))
            trace.append((env.now, rates,
                          tuple(f.finished_at for f in started)))
    return trace, net


@pytest.mark.parametrize("seed", range(4))
def test_memo_replay_matches_oracle_and_memo_off(seed: int) -> None:
    oracle, _ = _run_phases(EagerFluidNetwork, seed)
    memo_off, net_off = _run_phases(UnmemoizedFluidNetwork, seed)
    memo_on, net_on = _run_phases(FluidNetwork, seed)
    assert memo_on == memo_off == oracle
    assert net_off.memo_hits == net_off.memo_misses == 0
    # repeated phases must actually exercise the replay path
    assert net_on.memo_hits > 0
    assert net_on.solves == net_on.memo_misses < net_off.solves


def test_capacity_mutation_invalidates() -> None:
    env = Environment()
    net = FluidNetwork(env)
    link = net.add_link("port", 100e9)
    first = net.start_flow(1e9, [link])
    assert first.rate == 100e9
    env.run(first.done)
    link.capacity = 50e9  # direct topology mutation
    second = net.start_flow(1e9, [link])
    assert second.rate == 50e9  # a stale replay would say 100e9
    env.run(second.done)


def test_weight_and_cap_changes_invalidate() -> None:
    env = Environment()
    net = FluidNetwork(env)
    link = net.add_link("port", 90e9)

    def pair_rates(w, cap):
        a = net.start_flow(2e9, [link], weight=w)
        b = net.start_flow(2e9, [link], weight=1.0, max_rate=cap)
        rates = (a.rate, b.rate)
        env.run(env.all_of([a.done, b.done]))
        return rates

    assert pair_rates(1.0, math.inf) == (45e9, 45e9)
    assert pair_rates(2.0, math.inf) == (60e9, 30e9)
    capped = pair_rates(1.0, 10e9)
    assert capped[1] == 10e9 and capped[0] == 80e9
    # and the original configuration still replays correctly afterwards
    assert pair_rates(1.0, math.inf) == (45e9, 45e9)
    assert net.memo_hits >= 1


def test_arrival_order_is_not_part_of_the_key() -> None:
    # same flow multiset, different arrival order: the key counts flows
    # per class and the kernel walks classes in class-id order, so the
    # second configuration replays the first one's entry
    env = Environment()
    net = FluidNetwork(env)
    link = net.add_link("port", 60e9)
    a = net.start_flow(1e9, [link], weight=1.0, max_rate=5e9)
    b = net.start_flow(1e9, [link], weight=2.0)
    assert (a.rate, b.rate) == (5e9, 55e9)
    assert (net.memo_hits, net.memo_misses) == (0, 1)
    env.run(env.all_of([a.done, b.done]))
    hits, misses = net.memo_hits, net.memo_misses
    c = net.start_flow(1e9, [link], weight=2.0)
    d = net.start_flow(1e9, [link], weight=1.0, max_rate=5e9)
    assert (c.rate, d.rate) == (55e9, 5e9)
    assert (net.memo_hits, net.memo_misses) == (hits + 1, misses)
    env.run(env.all_of([c.done, d.done]))


def test_dirty_set_is_not_part_of_the_key() -> None:
    # the closure walk starts from the dirty classes, but the key lists
    # the component's classes in class-id order: the same component
    # reached from a different dirty set, and in a different arrival
    # order, is a hit
    env = Environment()
    net = FluidNetwork(env)
    a, b = net.add_link("a", 60e9), net.add_link("b", 40e9)
    first = [net.start_flow(4e9, [a, b]) for _ in range(2)]
    assert first[0].rate == 20e9
    assert (net.memo_hits, net.memo_misses) == (0, 1)  # dirty: the a+b class
    env.run(env.all_of([f.done for f in first]))
    short = net.start_flow(1e6, [a])
    second = [net.start_flow(4e9, [a, b]) for _ in range(2)]
    assert second[0].rate == 20e9
    assert (net.memo_hits, net.memo_misses) == (0, 2)  # + the short flow
    env.run(short.done)
    assert second[0].rate == 20e9  # settles the departure: the a class alone
    assert (net.memo_hits, net.memo_misses) == (1, 2)
    env.run(env.all_of([f.done for f in second]))


def test_memo_is_fifo_bounded() -> None:
    env = Environment()
    net = FluidNetwork(env)
    link = net.add_link("port", 100e9)
    for k in range(_MEMO_MAX + 40):
        flow = net.start_flow(1e6, [link], weight=1.0 + k * 1e-6)
        env.run(flow.done)
    assert len(net._memo) <= _MEMO_MAX

