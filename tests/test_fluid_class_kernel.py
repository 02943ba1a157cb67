"""Property: with equal weights the class kernel is the flow-order kernel.

The shipped solver runs progressive filling over flow classes with
multiplicities, in class-id order, and keys its memo on per-class flow
counts.  Random equal-weight flow sets over 2-4 links (mixed caps and
capacities, multi-link flows, repeated classes) start at one instant:

* every flow's rate equals what :func:`tests.fluid_oracle.flow_order_fill`
  computes over the same flows in arrival order, bit for bit (the eager
  oracle runs it over the whole network on every start);
* cancelling them and starting the same flows in a permuted order gives
  bit-identical rates, served from the memo with no kernel run.

Mixed weights are held to the oracle by the ``rel=1e-9`` timeline
properties in ``test_fluid_solver_equivalence.py`` instead: there the
class kernel's fixed class-id order may differ from a flow order in the
last ulp.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from tests.fluid_oracle import EagerFluidNetwork, cancel_flow

#: capacities and caps off the integer grid, so a changed subtraction
#: order would show in the low bits of the rates
CAPACITIES = st.sampled_from([10e9, 121e9 / 3, 90e9, 64e9 / 3])
FLOWS = st.lists(
    st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=3,
                       unique=True),
              st.sampled_from([math.inf, 7.7e9 / 3, 15.4e9 / 3, 40e9 / 7])),
    min_size=1, max_size=14)


def _start(net, links, flows, weight):
    return [net.start_flow(1e9, [links[i % len(links)] for i in lidx],
                           weight=weight, max_rate=cap)
            for lidx, cap in flows]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(caps=st.lists(CAPACITIES, min_size=2, max_size=4), flows=FLOWS,
       weight=st.sampled_from([1.0, 2.0, 0.7]), data=st.data())
def test_equal_weights_match_flow_order_and_replay_any_order(
        caps, flows, weight, data):
    env = Environment()
    net = FluidNetwork(env)
    links = [net.add_link(f"l{i}", cap) for i, cap in enumerate(caps)]
    started = _start(net, links, flows, weight)
    rates = [f.rate.hex() for f in started]

    oracle = EagerFluidNetwork(Environment())
    oracle_links = [oracle.add_link(f"l{i}", cap)
                    for i, cap in enumerate(caps)]
    expected = [f.rate.hex() for f in
                _start(oracle, oracle_links, flows, weight)]
    assert rates == expected

    order = data.draw(st.permutations(range(len(flows))))
    for flow in started:
        cancel_flow(net, flow)
    solves, hits = net.solves, net.memo_hits
    permuted = _start(net, links, [flows[i] for i in order], weight)
    assert [permuted[order.index(i)].rate.hex()
            for i in range(len(flows))] == rates
    assert (net.solves, net.memo_hits) == (solves, hits + 1)
