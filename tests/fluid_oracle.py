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

:func:`cancel_flow` aborts an in-flight flow on any of them; nothing in
the shipped runtime cancels a flow.

To run a whole runtime under the oracle, monkeypatch
``repro.machine.node.FluidNetwork`` with :class:`EagerFluidNetwork`.
"""

from __future__ import annotations

import math
import typing as _t
from itertools import chain
from operator import attrgetter

from repro.errors import SimulationError
from repro.sim.fluid import Flow, FluidNetwork, Link


def active_flows(net: FluidNetwork) -> frozenset[Flow]:
    """The flows ``net`` is carrying: every flow of every live class."""
    return frozenset(chain.from_iterable(
        net._class_flows[c] for c in net._live))


def cancel_flow(net: FluidNetwork, flow: Flow) -> None:
    """Abort an in-flight flow of ``net``; its ``done`` event fails.

    Idempotent: cancelling a flow that already finished, was already
    cancelled, or was never started on ``net`` is a no-op — including the
    race where the flow reaches zero bytes at the *exact* cancel instant
    (``_advance`` below may complete it, in which case its ``done``
    already succeeded and must not be failed on top).  The departure
    goes through ``net._mark_dirty``, like every start and completion.
    """
    if flow.network is not net or flow.finished_at is not None:
        return
    net._advance()
    if flow.finished_at is not None:
        # _advance() integrated the final dt and completed the flow at
        # this very instant: it finished before the cancel landed.
        return
    net._detach(flow)
    flow.finished_at = net.env.now
    flow.done.fail(SimulationError(f"flow #{flow.fid} cancelled"))
    flow.done.defuse()
    net._mark_dirty(1 << flow._cls)


def flow_order_fill(net: FluidNetwork, flows: _t.Iterable[Flow],
                    links: _t.Iterable[Link]) -> None:
    """Weighted max-min fair allocation via progressive filling, per flow.

    ``flows`` must be closed over ``links``: every flow crossing a link
    in ``links`` is in ``flows`` and vice versa.  A link's flows are
    walked in the order of ``flows``.  Each flow's personal ``max_rate``
    is honoured by treating it as a candidate bottleneck alongside its
    links.  Flows of one class freeze together at one rate, which is
    stored as their class's rate; counted as one solve of ``net``.
    """
    net.solves += 1
    unfrozen = dict.fromkeys(flows)
    if len(unfrozen) == 1:
        # Lone-flow fast path: arithmetic-identical to one trip through
        # the loop below.
        flow = next(iter(unfrozen))
        weight = flow.weight
        share = min(link.capacity / weight for link in flow.links)
        rate = share * weight
        net._class_rate[flow._cls] = (flow.max_rate if flow.max_rate < rate
                                      else rate)
        return
    rates = dict.fromkeys(unfrozen, 0.0)
    on_link: dict[Link, list[Flow]] = {link: [] for link in links}
    for flow in unfrozen:
        for link in flow.links:
            on_link[link].append(flow)
    residual = {link: link.capacity for link in on_link}
    live_weight = {link: sum(f.weight for f in on_link[link])
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
                rates[flow] = flow.max_rate
                unfrozen.pop(flow, None)
                for link in flow.links:
                    residual[link] -= flow.max_rate
                    live_weight[link] -= flow.weight
            continue
        if not math.isfinite(bottleneck_share):
            for flow in unfrozen:
                rates[flow] = (flow.max_rate if math.isfinite(flow.max_rate)
                               else 0.0)
            break
        saturated = [link for link, cap in residual.items()
                     if live_weight[link] > weight_floor
                     and max(cap, 0.0) / live_weight[link]
                     <= bottleneck_share * (1 + 1e-12) + 1e-18]
        froze_any = False
        for link in saturated:
            for flow in [f for f in on_link[link] if f in unfrozen]:
                rate = rates[flow] = bottleneck_share * flow.weight
                unfrozen.pop(flow, None)
                froze_any = True
                for l2 in flow.links:
                    residual[l2] -= rate
                    live_weight[l2] -= flow.weight
        if not froze_any:
            for flow in unfrozen:
                rates[flow] = bottleneck_share * flow.weight
            break
    for flow, rate in rates.items():
        net._class_rate[flow._cls] = rate


class UnmemoizedFluidNetwork(FluidNetwork):
    """The shipped solver with the component memo bypassed."""

    def _solve(self, key, classes, links) -> None:
        for cls, rate in self._progressive_fill(classes, links).items():
            self._class_rate[cls] = rate


class EagerFluidNetwork(UnmemoizedFluidNetwork):
    """Solve everything on every change; never defer, never memoize."""

    def _mark_dirty(self, classes) -> None:
        # never sets ``_dirty``: rates are current the moment this returns
        flows = sorted(active_flows(self), key=attrgetter("fid"))
        flow_order_fill(self, flows, self._links.values())
        self._schedule_wake()
