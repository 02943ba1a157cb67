"""Reference fluid solvers the tests hold :class:`FluidNetwork` to.

:class:`FluidNetwork` defers each re-solve to a same-instant flush,
restricts it to the touched connected component, replays memoized
component rates, and runs its max-min kernel over flow classes rather
than over flows.  The first three are wall-clock optimisations: none may
change a simulated quantity.  The classes here drop them one at a time.

* :func:`flow_order_fill` is the per-flow progressive-filling kernel the
  class kernel replaced: it walks flows in the order it is given them.
  With equal weights the two are bit-identical; with mixed weights they
  may differ in the last ulp (DESIGN §14).
* :class:`UnmemoizedFluidNetwork` keeps the deferred component-local
  class solve but always runs the kernel.
* :class:`EagerFluidNetwork` is the oracle: every flow-set change
  re-solves every flow on every link at once with :func:`flow_order_fill`,
  unmemoized, and re-arms the completion wake from the fresh rates.

To run a whole runtime under the oracle, monkeypatch
``repro.machine.node.FluidNetwork`` with :class:`EagerFluidNetwork`.
"""

from __future__ import annotations

import math
import typing as _t

from repro.sim.fluid import Flow, FluidNetwork, Link


def flow_order_fill(net: FluidNetwork, flows: _t.Iterable[Flow],
                    links: _t.Iterable[Link]) -> None:
    """Weighted max-min fair allocation via progressive filling, per flow.

    ``flows`` must be closed over ``links``: every flow crossing a link
    in ``links`` is in ``flows`` and vice versa.  Each flow's personal
    ``max_rate`` is honoured by treating it as a candidate bottleneck
    alongside its links.  Sets every ``flow._rate``; counted as one solve
    of ``net``.
    """
    net.solves += 1
    unfrozen = dict.fromkeys(flows)
    if len(unfrozen) == 1:
        # Lone-flow fast path: arithmetic-identical to one trip through
        # the loop below.
        flow = next(iter(unfrozen))
        if flow.links:
            weight = flow.weight
            share = min(link.capacity / weight for link in flow.links)
            if flow.max_rate < share * weight:
                flow._rate = flow.max_rate
            else:
                flow._rate = share * weight
            return
    for flow in unfrozen:
        flow._rate = 0.0
    residual = {link: link.capacity for link in links}
    live_weight = {link: sum(f.weight for f in link.flows)
                   for link in residual}
    # a link whose flows all froze must read exactly empty despite the
    # ~1e-16 residues repeated subtraction leaves
    weight_floor = 1e-9 * max(
        (f.weight for f in unfrozen), default=1.0)

    while unfrozen:
        bottleneck_share = math.inf
        for link, cap in residual.items():
            w = live_weight[link]
            if w > weight_floor:
                bottleneck_share = min(bottleneck_share,
                                       max(cap, 0.0) / w)
        capped = [f for f in unfrozen
                  if f.max_rate < bottleneck_share * f.weight]
        if capped:
            tightest = min(f.max_rate / f.weight for f in capped)
            batch = [f for f in capped
                     if f.max_rate / f.weight <= tightest * (1 + 1e-12)]
            for flow in batch:
                flow._rate = flow.max_rate
                unfrozen.pop(flow, None)
                for link in flow.links:
                    residual[link] -= flow._rate
                    live_weight[link] -= flow.weight
            continue
        if not math.isfinite(bottleneck_share):
            for flow in unfrozen:
                flow._rate = flow.max_rate if math.isfinite(flow.max_rate) else 0.0
            break
        saturated = [link for link, cap in residual.items()
                     if live_weight[link] > weight_floor
                     and max(cap, 0.0) / live_weight[link]
                     <= bottleneck_share * (1 + 1e-12) + 1e-18]
        froze_any = False
        for link in saturated:
            for flow in [f for f in link.flows if f in unfrozen]:
                flow._rate = bottleneck_share * flow.weight
                unfrozen.pop(flow, None)
                froze_any = True
                for l2 in flow.links:
                    residual[l2] -= flow._rate
                    live_weight[l2] -= flow.weight
        if not froze_any:
            for flow in unfrozen:
                flow._rate = bottleneck_share * flow.weight
            break


class UnmemoizedFluidNetwork(FluidNetwork):
    """The shipped solver with the component memo bypassed."""

    def _solve(self, key, links) -> None:
        rates = self._progressive_fill(links)
        for link in links:
            for f in link.flows:
                f._rate = rates[f._cls]


class EagerFluidNetwork(UnmemoizedFluidNetwork):
    """Solve everything on every change; never defer, never memoize."""

    def _mark_dirty(self, links) -> None:
        # never sets ``_dirty``: rates are current the moment this returns
        flow_order_fill(self, self._flows, self._links.values())
        self._schedule_wake()
