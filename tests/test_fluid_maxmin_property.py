"""Property test: the fluid solver's allocation is max-min fair.

A rate allocation is (weighted) max-min fair iff it is feasible and every
flow is *bottlenecked*: it either runs at its own rate cap, or it crosses
at least one saturated link on which no other flow gets a higher
weight-normalised rate.  This is the textbook characterisation, checked
directly against randomly generated topologies — independent of the
progressive-filling implementation.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork

TOPOLOGY = st.fixed_dictionaries({
    "link_caps": st.lists(st.floats(min_value=1.0, max_value=1000.0),
                          min_size=1, max_size=5),
    "flows": st.lists(
        st.fixed_dictionaries({
            "links": st.sets(st.integers(min_value=0, max_value=4),
                             min_size=1, max_size=3),
            "weight": st.floats(min_value=0.1, max_value=4.0),
            "cap": st.one_of(st.none(),
                             st.floats(min_value=0.5, max_value=500.0)),
        }),
        min_size=1, max_size=10),
})


def build(spec):
    env = Environment()
    net = FluidNetwork(env)
    links = [net.add_link(f"l{i}", cap)
             for i, cap in enumerate(spec["link_caps"])]
    flows = []
    for f in spec["flows"]:
        chosen = [links[i % len(links)] for i in f["links"]]
        # dedupe while preserving determinism
        chosen = list(dict.fromkeys(chosen))
        flows.append(net.start_flow(
            1e9, chosen, weight=f["weight"],
            max_rate=f["cap"] if f["cap"] is not None else float("inf")))
    return net, links, flows


@settings(max_examples=60, deadline=None)
@given(spec=TOPOLOGY)
def test_allocation_is_feasible(spec):
    net, links, flows = build(spec)
    for link in links:
        load = sum(f.rate for f in flows if link in f.links)
        assert load <= link.capacity * (1 + 1e-6)
    for flow in flows:
        assert flow.rate <= flow.max_rate * (1 + 1e-6)
        assert flow.rate >= 0.0


@settings(max_examples=60, deadline=None)
@given(spec=TOPOLOGY)
def test_every_flow_is_bottlenecked(spec):
    """Max-min characterisation: each flow is rate-capped or crosses a
    saturated link where its normalised rate is maximal."""
    net, links, flows = build(spec)
    for flow in flows:
        if flow.rate >= flow.max_rate * (1 - 1e-6):
            continue  # bottlenecked by its own cap
        bottleneck_found = False
        for link in flow.links:
            load = sum(f.rate for f in flows if link in f.links)
            saturated = load >= link.capacity * (1 - 1e-6)
            if not saturated:
                continue
            my_norm = flow.rate / flow.weight
            others = [f.rate / f.weight for f in flows
                      if link in f.links and f is not flow]
            if all(my_norm >= o * (1 - 1e-6) for o in others):
                bottleneck_found = True
                break
        assert bottleneck_found, (
            f"flow {flow.fid} (rate {flow.rate}) has no bottleneck")


@settings(max_examples=30, deadline=None)
@given(spec=TOPOLOGY)
def test_allocation_is_pareto_efficient_per_link(spec):
    """No single-link flow could be sped up without violating feasibility:
    every flow below its cap crosses at least one saturated link."""
    net, links, flows = build(spec)
    for flow in flows:
        if flow.rate >= flow.max_rate * (1 - 1e-6):
            continue
        saturated_links = [
            link for link in flow.links
            if sum(f.rate for f in flows if link in f.links)
            >= link.capacity * (1 - 1e-6)]
        assert saturated_links, f"flow {flow.fid} could be faster"
