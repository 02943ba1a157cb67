"""Flow-set-signature memo: replay correctness, invalidation, oracle check.

The memo replays cached max-min rate vectors for previously seen component
configurations.  Correctness rests on two claims these tests pin down:

* rates depend only on the component *structure* (capacities, weights,
  per-flow caps, membership order) — never on remaining bytes — so a
  repeated phase may replay, and the replayed vector is what the kernel
  would recompute bit-for-bit;
* any mutation of that structure changes the signature, so stale entries
  can never be served (content keying subsumes invalidation).

The full solver is the unmemoized oracle: every scenario here is
cross-checked against ``solver="full"`` timelines and rates.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.sim.environment import Environment
from repro.sim.fluid import _MEMO_MAX, FluidNetwork


def _run_phases(solver: str, memo: bool, seed: int,
                phases: int = 5, repeats: int = 3):
    """Run a randomized phase alphabet ``repeats`` times; return the trace.

    The trace records, per phase instance, the solved rate vector at
    arrival and every flow's completion instant — everything the memo
    could corrupt if it replayed a wrong vector.
    """
    rng = random.Random(seed)
    env = Environment()
    net = FluidNetwork(env, solver=solver, memo=memo)
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
    oracle, _ = _run_phases("full", False, seed)
    memo_off, net_off = _run_phases("incremental", False, seed)
    memo_on, net_on = _run_phases("incremental", True, seed)
    assert memo_on == memo_off == oracle
    assert net_off.memo_hits == net_off.memo_misses == 0
    # repeated phases must actually exercise the replay path
    assert net_on.memo_hits > 0
    assert net_on.solves == net_on.memo_misses < net_off.solves


def test_capacity_mutation_invalidates() -> None:
    env = Environment()
    net = FluidNetwork(env, solver="incremental", memo=True)
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
    net = FluidNetwork(env, solver="incremental", memo=True)
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


def test_membership_order_is_part_of_the_signature() -> None:
    # same flow multiset, different link.flows insertion order: the freeze
    # loop walks that order, so the signatures must be distinct entries
    env = Environment()
    net = FluidNetwork(env, solver="incremental", memo=True)
    link = net.add_link("port", 60e9)
    a = net.start_flow(1e9, [link], weight=1.0, max_rate=5e9)
    b = net.start_flow(1e9, [link], weight=2.0)
    sig_ab = net._signature([a, b], [link])
    env.run(env.all_of([a.done, b.done]))
    c = net.start_flow(1e9, [link], weight=2.0)
    d = net.start_flow(1e9, [link], weight=1.0, max_rate=5e9)
    sig_cd = net._signature([c, d], [link])
    env.run(env.all_of([c.done, d.done]))
    assert sig_ab != sig_cd


def test_memo_is_fifo_bounded() -> None:
    env = Environment()
    net = FluidNetwork(env, solver="incremental", memo=True)
    link = net.add_link("port", 100e9)
    for k in range(_MEMO_MAX + 40):
        flow = net.start_flow(1e6, [link], weight=1.0 + k * 1e-6)
        env.run(flow.done)
    assert len(net._memo) <= _MEMO_MAX


def test_full_solver_never_memoizes() -> None:
    env = Environment()
    net = FluidNetwork(env, solver="full", memo=True)
    assert not net._memo_enabled
    link = net.add_link("port", 100e9)
    for _ in range(3):
        env.run(net.start_flow(1e8, [link]).done)
    assert net.memo_hits == 0 and net.memo_misses == 0
    assert not net._memo


def test_solve_wall_clock_is_recorded() -> None:
    env = Environment()
    net = FluidNetwork(env, solver="incremental")
    link = net.add_link("port", 100e9)
    env.run(net.start_flow(1e9, [link]).done)
    assert net.solve_wall_s > 0.0
