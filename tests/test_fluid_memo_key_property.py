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
  cannot move.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.environment import Environment
from repro.sim.fluid import _MEMO_MAX, FluidNetwork
from tests.fluid_oracle import UnmemoizedFluidNetwork, active_flows

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


def _per_link_key(flows, dirty_links) -> tuple | None:
    """The per-link memo key of the component reached from ``dirty_links``."""
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

    def _ensure_current(self) -> None:
        dirty_links = {link for cls in self._dirty
                       for link in self._class_keys[cls][2]}
        key = _per_link_key(active_flows(self), dirty_links)
        hits, misses = self.memo_hits, self.memo_misses
        super()._ensure_current()
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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(caps=st.lists(st.sampled_from([10e9, 121e9 / 3, 90e9]),
                     min_size=2, max_size=4),
       steps=STEPS)
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
