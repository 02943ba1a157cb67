"""Property: the incrementally kept memo key never goes stale or aliases.

Random start/cancel/complete scripts over 2-4 links, with repeated flow
classes, multi-link flows and one direct ``link.capacity`` change, run in
lockstep on the shipped :class:`FluidNetwork` and on
:class:`UnmemoizedFluidNetwork` (the same solver, kernel on every
request).  Each script plays twice, draining in between, so the second
pass meets configurations the memo has seen.  After every settle:

* every link's per-class flow counts, and every cached ``link._enc``
  (and its neighbour links), equal what a fresh count over
  ``link.flows`` computes, so no start or departure skipped an update or
  an invalidation;
* every active flow's rate equals the unmemoized network's bit for bit,
  so no replayed entry belongs to a different configuration;
* flows of one class hold identical rates, which is what lets one
  ``{class: rate}`` dict replay a whole component.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from tests.fluid_oracle import UnmemoizedFluidNetwork

#: caps and capacities off the integer grid, so float subtraction order
#: shows in the low bits of the rates; caps c/1.0 == 2c/2.0 put flows of
#: different classes into one capped freeze batch, walked in flow order
STEPS = st.lists(st.one_of(
    st.tuples(st.just("start"),
              st.lists(st.integers(0, 3), min_size=1, max_size=3,
                       unique=True),
              st.sampled_from([1.0, 2.0, 0.7]),
              st.sampled_from([math.inf, 7.7e9 / 3, 15.4e9 / 3]),
              st.sampled_from([2e6, 3e7, 4e8])),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-4, 1e-3, 1e-2])),
    st.tuples(st.just("capacity"), st.integers(0, 3),
              st.sampled_from([64e9 / 3, 136e9 / 3])),
), min_size=10, max_size=40)


class _Run:
    """One network under the script, plus the flows it started."""

    def __init__(self, network_cls, caps):
        self.env = Environment()
        self.net = network_cls(self.env)
        self.links = [self.net.add_link(f"l{i}", cap)
                      for i, cap in enumerate(caps)]
        self.flows = []
        self.pass_flows = []

    def apply(self, step) -> None:
        kind = step[0]
        if kind == "start":
            _, lidx, weight, cap, nbytes = step
            chosen = dict.fromkeys(self.links[i % len(self.links)]
                                   for i in lidx)
            flow = self.net.start_flow(nbytes, list(chosen), weight=weight,
                                       max_rate=cap)
            self.flows.append(flow)
            self.pass_flows.append(flow)
        elif kind == "cancel":
            if self.pass_flows:
                self.net.cancel_flow(
                    self.pass_flows[step[1] % len(self.pass_flows)])
        elif kind == "advance":
            self.env.run(until=self.env.now + step[1])
        else:
            _, i, cap = step
            self.links[i % len(self.links)].capacity = cap

    def settle(self) -> list[str]:
        self.net.snapshot()
        return [f.rate.hex() for f in self.flows if not f.finished]


def _check_caches(net: FluidNetwork) -> None:
    for link in net.links:
        if link._enc is None:
            continue
        counts: dict[int, int] = {}
        for flow in link.flows:
            counts[flow._cls] = counts.get(flow._cls, 0) + 1
        assert link._counts == counts
        classes = sorted(counts)
        assert link._enc == tuple(x for cls in classes
                                  for x in (cls, counts[cls]))
        nbrs = dict.fromkeys(other for cls in classes
                             for other in net._class_links[cls])
        assert link._nbrs == tuple(nbrs)


def _check_class_rates(net: FluidNetwork) -> None:
    by_class: dict[int, set[str]] = {}
    for flow in net.active_flows:
        by_class.setdefault(flow._cls, set()).add(flow.rate.hex())
    assert all(len(rates) == 1 for rates in by_class.values())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(caps=st.lists(st.sampled_from([10e9, 121e9 / 3, 90e9]),
                     min_size=2, max_size=4),
       steps=STEPS)
def test_memo_key_stays_exact(caps, steps):
    shipped = _Run(FluidNetwork, caps)
    oracle = _Run(UnmemoizedFluidNetwork, caps)
    capacity_changed = False
    for _pass in range(2):
        shipped.pass_flows, oracle.pass_flows = [], []
        for step in steps:
            if step[0] == "capacity":
                if capacity_changed:
                    continue
                capacity_changed = True
            shipped.apply(step)
            oracle.apply(step)
            assert shipped.settle() == oracle.settle()
            assert shipped.env.now == oracle.env.now
            _check_caches(shipped.net)
            _check_class_rates(shipped.net)
        shipped.env.run()
        oracle.env.run()
    assert ([f.finished_at for f in shipped.flows]
            == [f.finished_at for f in oracle.flows])
