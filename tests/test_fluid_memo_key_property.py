"""Property: per-class fluid state never goes stale and the memo key is exact.

Random start/cancel/complete scripts over 2-4 links, with repeated flow
classes, multi-link flows, paths that name a link twice and one direct
``link.capacity`` change, run in lockstep on the shipped
:class:`FluidNetwork` and on :class:`UnmemoizedFluidNetwork` (the same
solver, kernel on every request).  Each script plays twice, draining in
between, so the second pass meets configurations the memo has seen.
After every settle:

* each class's flow list is exactly the active flows of that class,
  sorted by ``remaining``, and a class is live if and only if it has
  flows, so no start, advance or departure skipped an update;
* every active flow's rate equals the unmemoized network's bit for bit,
  so no replayed entry belongs to a different configuration;
* every solve request is a memo hit exactly when a reference encoder
  says so.  The reference rebuilds the previous design's key from the
  active flows alone: the closure of the dirty classes' links over the
  flow<->link graph, then per link in uid order ``(uid, capacity,
  (class, count) pairs in class-id order, -1)``.  The shipped key must
  draw the same distinctions, so the counts of kernel runs and replays
  cannot move;
* every solve request solves the component a reference walk over the
  active flows finds, and the component cache holds that same component
  under the request's ``(dirty mask, live mask)``.  A fixed script
  starts a class mid-script whose path joins two separate components.

Unit tests below pin the start_flow path cache (an unknown link name
raises on every call; a path given by names and by ``Link`` objects
joins one class) and the component cache's ``_MEMO_MAX`` bound.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.fluid import _MEMO_MAX, FluidNetwork
from tests.fluid_oracle import (UnmemoizedFluidNetwork, active_flows,
                                cancel_flow)

#: caps and capacities off the integer grid, so float subtraction order
#: shows in the low bits of the rates; caps c/1.0 == 2c/2.0 put flows of
#: different classes into one capped freeze batch
STEPS = st.lists(st.one_of(
    st.tuples(st.just("start"),
              st.lists(st.integers(0, 3), min_size=1, max_size=3),
              st.sampled_from([1.0, 2.0, 0.7]),
              st.sampled_from([math.inf, 7.7e9 / 3, 15.4e9 / 3]),
              st.sampled_from([2e6, 3e7, 4e8])),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1e-4, 1e-3, 1e-2])),
    st.tuples(st.just("capacity"), st.integers(0, 3),
              st.sampled_from([64e9 / 3, 136e9 / 3])),
), min_size=10, max_size=40)


def _closure(flows, dirty_links) -> tuple[set, dict]:
    """The links reached from ``dirty_links`` over the flow<->link graph,
    and each link's flows."""
    on_link: dict = {}
    for flow in flows:
        for link in flow.links:
            on_link.setdefault(link, []).append(flow)
    stack = list(dirty_links)
    seen = set(stack)
    while stack:
        for flow in on_link.get(stack.pop(), ()):
            for other in flow.links:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
    return seen, on_link


def _reference_component(flows, dirty_links) -> tuple[tuple, tuple]:
    """The component reached from ``dirty_links``: its classes in id
    order and the links they cross in uid order."""
    seen, on_link = _closure(flows, dirty_links)
    reached = [flow for link in seen for flow in on_link.get(link, ())]
    links = {link for flow in reached for link in flow.links}
    return (tuple(sorted({flow._cls for flow in reached})),
            tuple(sorted(links, key=lambda l: l.uid)))


def _per_link_key(flows, dirty_links) -> tuple | None:
    """The per-link memo key of the component reached from ``dirty_links``."""
    seen, on_link = _closure(flows, dirty_links)
    key: list = []
    for link in sorted((l for l in seen if l in on_link),
                       key=lambda l: l.uid):
        counts: dict[int, int] = {}
        for flow in on_link[link]:
            counts[flow._cls] = counts.get(flow._cls, 0) + 1
        key += [link.uid, link.capacity]
        for cls in sorted(counts):
            key += [cls, counts[cls]]
        key.append(-1)
    return tuple(key) or None


class _ReferenceKeyed(FluidNetwork):
    """The shipped network, checking each request against the reference."""

    def __init__(self, env):
        super().__init__(env)
        self.reference_memo: dict[tuple, None] = {}

    def _solve(self, key, classes, links) -> None:
        self.solved = (tuple(classes), tuple(links))
        super()._solve(key, classes, links)

    def _ensure_current(self) -> None:
        dirty, live = self._dirty, self._live_bits
        dirty_links = {link for cls in range(len(self._class_keys))
                       if dirty >> cls & 1
                       for link in self._class_keys[cls][2]}
        flows = active_flows(self)
        key = _per_link_key(flows, dirty_links)
        component = _reference_component(flows, dirty_links)
        hits, misses = self.memo_hits, self.memo_misses
        self.solved = None
        super()._ensure_current()
        assert self._components[dirty, live] == component
        assert self.solved == (component if component[0] else None)
        if key is None:
            assert (self.memo_hits, self.memo_misses) == (hits, misses)
            return
        memo = self.reference_memo
        if key in memo:
            assert (self.memo_hits, self.memo_misses) == (hits + 1, misses)
            return
        assert (self.memo_hits, self.memo_misses) == (hits, misses + 1)
        if len(memo) >= _MEMO_MAX:
            del memo[next(iter(memo))]
        memo[key] = None


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
            path = [self.links[i % len(self.links)] for i in lidx]
            flow = self.net.start_flow(nbytes, path, weight=weight,
                                       max_rate=cap)
            self.flows.append(flow)
            self.pass_flows.append(flow)
        elif kind == "cancel":
            if self.pass_flows:
                cancel_flow(
                    self.net, self.pass_flows[step[1] % len(self.pass_flows)])
        elif kind == "advance":
            self.env.run(until=self.env.now + step[1])
        else:
            _, i, cap = step
            self.links[i % len(self.links)].capacity = cap

    def settle(self) -> list[str]:
        self.net.snapshot()
        return [f.rate.hex() for f in self.flows if not f.finished]


def _check_class_state(run: _Run) -> None:
    net = run.net
    expected: dict[int, set] = {}
    for flow in run.flows:
        if not flow.finished:
            expected.setdefault(flow._cls, set()).add(flow)
    for cls, flows in enumerate(net._class_flows):
        assert set(flows) == expected.get(cls, set())
        assert len(flows) == len(set(flows))
        remaining = [flow.remaining for flow in flows]
        assert remaining == sorted(remaining)
        assert (cls in net._live) == bool(flows)


#: two one-link classes in separate components, then a class created
#: mid-script on both links joins them into one
_BRIDGE = [("start", [0], 1.0, math.inf, 3e7),
           ("start", [1], 2.0, math.inf, 4e8),
           ("advance", 1e-4),
           ("start", [0], 1.0, math.inf, 2e6),
           ("start", [0, 1], 0.7, 7.7e9 / 3, 3e7),
           ("advance", 1e-4),
           ("start", [1], 2.0, math.inf, 2e6),
           ("cancel", 4),
           ("advance", 1e-3),
           ("start", [0, 1], 0.7, 7.7e9 / 3, 4e8),
           ("advance", 1e-2)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(caps=st.lists(st.sampled_from([10e9, 121e9 / 3, 90e9]),
                     min_size=2, max_size=4),
       steps=STEPS)
@example(caps=[10e9, 90e9], steps=_BRIDGE)
def test_memo_key_stays_exact(caps, steps):
    shipped = _Run(_ReferenceKeyed, caps)
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
            _check_class_state(shipped)
        shipped.env.run()
        oracle.env.run()
    assert ([f.finished_at for f in shipped.flows]
            == [f.finished_at for f in oracle.flows])


def _two_links() -> tuple[Environment, FluidNetwork, list]:
    env = Environment()
    net = FluidNetwork(env)
    return env, net, [net.add_link("a", 10e9), net.add_link("b", 90e9)]


def test_unknown_link_name_raises_on_every_call():
    env, net, (a, _b) = _two_links()
    for _ in range(3):
        with pytest.raises(SimulationError, match="unknown link 'nope'"):
            net.start_flow(1e6, [a, "nope"])
    assert net._class_keys == [] and net._paths == {}
    net.start_flow(1e6, [a])
    with pytest.raises(SimulationError, match="unknown link 'nope'"):
        net.start_flow(1e6, ["a", "nope"])


def test_names_and_links_share_one_class():
    env, net, (a, b) = _two_links()
    flows = [net.start_flow(1e6, ["a", "b"]),
             net.start_flow(2e6, [a, b]),
             net.start_flow(3e6, [a, "b", a]),
             net.start_flow(4e6, ["a", "b"], weight=1, max_rate=math.inf)]
    assert {flow._cls for flow in flows} == {0}
    assert len(net._class_keys) == 1
    assert all(flow.links == (a, b) for flow in flows)
    env.run()
    assert [flow.finished_at for flow in flows] == sorted(
        flow.finished_at for flow in flows)


def test_component_cache_stays_within_bound():
    env = Environment()
    net = FluidNetwork(env)
    links = [net.add_link(f"l{i}", 10e9) for i in range(10)]
    largest = 0
    for mask in range(1, 1 << len(links)):
        for i, link in enumerate(links):
            if mask >> i & 1:
                net.start_flow(1e3 * (i + 1), [link])
        env.run()
        largest = max(largest, len(net._components))
    assert largest == _MEMO_MAX
    # FIFO: the first configuration seen went, the last start's stayed
    assert (1, 1) not in net._components
    every = (1 << len(links)) - 1
    assert (every, every) in net._components
