"""Max-min fair-share fluid bandwidth model.

Memory traffic is modelled as *flows* over capacity-limited *links* (one
link per memory-device port).  At any instant, active flows receive rates
according to weighted max-min fairness — the same progressive-filling
abstraction network/HPC simulators such as SimGrid use.  This is what makes
contention effects come out of the model instead of being scripted:

* 64 STREAM threads on one device each get ~1/64 of its bandwidth;
* a `memcpy` between devices is bottlenecked by the slower of the two ports
  (so HBM→DDR4 costs slightly more than DDR4→HBM, Figure 7);
* prefetch traffic slows concurrently running kernels, and vice versa.

The model is event-driven: whenever the flow set changes, every affected
flow's progress is advanced at its old rate, rates are recomputed, and the
next completion is scheduled.

Two solvers are available (``solver=`` constructor flag):

* ``"incremental"`` (default) — flow arrivals/departures mark their links
  *dirty*; the recompute is deferred to a flush event at the same simulated
  timestamp, so any number of same-instant changes (64 movers starting at
  once, a whole wave completing together) cost **one** solve.  The solve
  itself is restricted to the connected component of the flow↔link graph
  reachable from the dirty links — flows on untouched components keep
  their rates, which is exact because max-min allocations decompose per
  component.  Rates are never stale from the outside: reading
  ``Flow.rate`` / ``Link.utilization`` / ``snapshot()`` settles any pending
  recompute first, and no simulated time can pass while links are dirty
  (the flush is scheduled at the current instant).

* ``"full"`` — the original eager solver: every change recomputes every
  flow on every link immediately.  Kept as the tests' cross-check
  oracle; ``"incremental"`` must produce identical simulated timelines.

The epsilon/wake contract: a flow whose ``remaining`` falls to
``_EPSILON_BYTES`` or below — or whose ETA is too small for the event
clock to represent an instant strictly after ``now`` — is force-completed
at the current instant by :meth:`FluidNetwork._schedule_wake` instead of
being rescheduled.  Accumulated float error can therefore never produce a
zero-progress wake loop, and ``finished_at`` is never later than the
true completion instant.  Rate-zero flows (all links saturated by
higher-weight traffic, or ``max_rate == 0``) are parked with no wake at
all; the next ``_mark_dirty`` re-solve picks them back up.
"""

from __future__ import annotations

import math
import typing as _t
from itertools import count
from time import perf_counter as _perf_counter

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event

__all__ = ["Link", "Flow", "FluidNetwork", "SOLVERS"]

#: Flows with fewer remaining bytes than this are considered complete.
#: (Float progress integration leaves sub-byte residue.)  One shared
#: tolerance: start_flow's instant-complete check, _advance's completion
#: sweep and _schedule_wake's force-completion all compare against it.
_EPSILON_BYTES = 1e-3

#: recognised ``FluidNetwork(solver=...)`` values
SOLVERS = ("incremental", "full")

#: flow-set-signature memo bound (entries); FIFO eviction.  Steady-state
#: applications cycle through a handful of phase configurations, so a few
#: hundred entries cover every realistic phase alphabet while bounding
#: worst-case memory on adversarial workloads.
_MEMO_MAX = 512


class Link:
    """A capacity-limited pipe, e.g. the read port of a memory device."""

    __slots__ = ("name", "capacity", "flows", "uid", "network")

    def __init__(self, name: str, capacity: float, *, uid: int = 0,
                 network: "FluidNetwork | None" = None):
        if capacity <= 0:
            raise SimulationError(f"link {name!r} capacity must be > 0")
        self.name = name
        #: bytes per second
        self.capacity = float(capacity)
        #: active flows crossing this link, as an insertion-ordered set
        #: (dict keys) so solver iteration order is deterministic
        self.flows: dict["Flow", None] = {}
        #: creation index, for deterministic dirty-set ordering
        self.uid = uid
        self.network = network

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of capacity in use."""
        network = self.network
        if network is not None and network._dirty:
            network._ensure_current()
        return sum(f._rate for f in self.flows) / self.capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} cap={self.capacity:g} flows={len(self.flows)}>"


class Flow:
    """A transfer of ``nbytes`` across one or more links.

    ``done`` is an Event that fires (with the flow) at completion time.
    ``max_rate`` models per-requestor limits (e.g. a single core cannot
    saturate MCDRAM by itself).
    """

    __slots__ = ("fid", "links", "remaining", "total", "weight", "max_rate",
                 "_rate", "done", "started_at", "finished_at", "network")

    def __init__(self, fid: int, links: tuple[Link, ...], nbytes: float,
                 weight: float, max_rate: float, done: Event, now: float,
                 network: "FluidNetwork | None" = None):
        self.fid = fid
        self.links = links
        self.total = float(nbytes)
        self.remaining = float(nbytes)
        self.weight = float(weight)
        self.max_rate = float(max_rate)
        self._rate = 0.0
        self.done = done
        self.started_at = now
        self.finished_at: float | None = None
        self.network = network

    @property
    def rate(self) -> float:
        """Current fair-share rate (B/s); settles any pending recompute."""
        network = self.network
        if network is not None and network._dirty:
            network._ensure_current()
        return self._rate

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def __repr__(self) -> str:
        links = "+".join(l.name for l in self.links)
        return (f"<Flow #{self.fid} {links} {self.remaining:.0f}/{self.total:.0f}B "
                f"@{self._rate:g}B/s>")


class FluidNetwork:
    """The set of links plus the progressive-filling rate solver."""

    def __init__(self, env: Environment, *, solver: str | None = None,
                 memo: bool = True):
        if solver is None:
            solver = "incremental"
        if solver not in SOLVERS:
            raise SimulationError(
                f"unknown fluid solver {solver!r}; choose from {SOLVERS}")
        self.env = env
        self.solver = solver
        self._incremental = solver == "incremental"
        self._links: dict[str, Link] = {}
        #: active flows as an insertion-ordered set (dict keys)
        self._flows: dict[Flow, None] = {}
        self._fid = count()
        self._link_uid = count()
        self._last_advance = env.now
        #: links whose flow set changed at the current instant (incremental)
        self._dirty: set[Link] = set()
        #: pending same-instant flush event, if any (incremental)
        self._flush_event: Event | None = None
        #: schedule() token of the pending "next completion" wakeup, if any
        #: (an Event in the batched event loop, a heap entry under a
        #: schedule-explorer tie-breaker; env.cancel accepts either)
        self._wake_entry: object | None = None
        #: total bytes moved to completion through this network
        self.completed_bytes = 0.0
        self.completed_flows = 0
        #: rate-kernel invocations (memo hits do NOT count: no kernel ran)
        self.solves = 0
        #: wall-clock seconds spent inside _solve (kernel + memo machinery)
        self.solve_wall_s = 0.0
        # Flow-set-signature memo (incremental only; the full
        # solver stays the unmemoized oracle).  Max-min rates depend only
        # on the component's *structure* — link capacities, per-flow
        # (weight, max_rate, link incidence) and the per-link membership
        # order the freeze loops walk — never on remaining bytes, so
        # identical configurations can replay the cached rate vector.
        # Content keying subsumes invalidation: any topology or demand
        # mutation (capacity, weight, max_rate, membership) changes the
        # signature and simply misses.
        self._memo_enabled = memo and self._incremental
        self._memo: dict[tuple, tuple[float, ...]] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    # -- topology -------------------------------------------------------------

    def add_link(self, name: str, capacity: float) -> Link:
        if name in self._links:
            raise SimulationError(f"duplicate link name {name!r}")
        link = Link(name, capacity, uid=next(self._link_uid), network=self)
        self._links[name] = link
        return link

    def link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise SimulationError(f"unknown link {name!r}") from None

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links.values())

    @property
    def active_flows(self) -> frozenset[Flow]:
        return frozenset(self._flows)

    # -- flow lifecycle ---------------------------------------------------------

    def start_flow(self, nbytes: float, links: _t.Sequence[Link | str],
                   weight: float = 1.0, max_rate: float = math.inf) -> Flow:
        """Begin a transfer; returns the Flow whose ``.done`` can be awaited."""
        if not nbytes >= 0:  # rejects negatives and NaN in one comparison
            raise SimulationError(f"flow size must be >= 0, got {nbytes!r}")
        if not weight > 0:
            raise SimulationError(f"flow weight must be > 0, got {weight!r}")
        if not max_rate >= 0:
            raise SimulationError(
                f"flow max_rate must be >= 0, got {max_rate!r}")
        resolved = tuple(self.link(l) if isinstance(l, str) else l for l in links)
        if not resolved and nbytes > 0:
            raise SimulationError("a non-empty flow needs at least one link")
        done = self.env.event(name="flow.done")
        flow = Flow(next(self._fid), resolved, nbytes, weight, max_rate,
                    done, self.env.now, network=self)
        if nbytes <= _EPSILON_BYTES:
            flow.remaining = 0.0
            flow.finished_at = self.env.now
            self.completed_flows += 1
            done.succeed(flow)
            return flow
        self._advance()
        self._flows[flow] = None
        for link in resolved:
            link.flows[flow] = None
        if self._incremental:
            self._mark_dirty(resolved)
        else:
            self._recompute_and_reschedule()
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        """Abort an in-flight flow; its ``done`` event fails.

        Idempotent: cancelling a flow that already finished, was already
        cancelled, or was never started here is a no-op — including the
        race where the flow reaches zero bytes at the *exact* cancel
        instant (``_advance`` below may complete it, in which case its
        ``done`` already succeeded and must not be failed on top).
        """
        if flow not in self._flows:
            return
        self._advance()
        if flow not in self._flows:
            # _advance() integrated the final dt and completed the flow at
            # this very instant: it finished before the cancel landed.
            return
        self._detach(flow)
        flow.finished_at = self.env.now
        exc = SimulationError(f"flow #{flow.fid} cancelled")
        flow.done.fail(exc)
        flow.done.defuse()
        if self._incremental:
            self._mark_dirty(flow.links)
        else:
            self._recompute_and_reschedule()

    # -- solver ------------------------------------------------------------------

    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow, None)
        for link in flow.links:
            link.flows.pop(flow, None)

    def _advance(self) -> None:
        """Integrate progress since the last rate change; finish flows."""
        now = self.env.now
        dt = now - self._last_advance
        self._last_advance = now
        if dt < 0:
            raise SimulationError("fluid network clock went backwards")
        if dt == 0:
            return
        if self._dirty:  # pragma: no cover - defensive invariant
            raise SimulationError(
                "fluid rates were stale across a time step (dirty links "
                "survived past their flush instant)")
        finished: list[Flow] = []
        for flow in self._flows:
            flow.remaining -= flow._rate * dt
            if flow.remaining <= _EPSILON_BYTES:
                flow.remaining = 0.0
                finished.append(flow)
        if not finished:
            return
        touched: list[Link] = []
        for flow in sorted(finished, key=lambda f: f.fid):
            touched.extend(flow.links)
            self._complete(flow, now)
        if self._incremental:
            self._mark_dirty(touched)

    def _complete(self, flow: Flow, now: float) -> None:
        """Finish a flow: detach, stamp, count, fire ``done``.

        Shared by _advance's completion sweep and _schedule_wake's
        sub-epsilon force-completion so the two paths cannot drift.
        """
        self._detach(flow)
        flow.remaining = 0.0
        flow.finished_at = now
        self.completed_bytes += flow.total
        self.completed_flows += 1
        flow.done.succeed(flow)

    # -- incremental bookkeeping ---------------------------------------------

    def _mark_dirty(self, links: _t.Iterable[Link]) -> None:
        """Record a flow-set change; defer the solve to the flush instant."""
        self._dirty.update(links)
        if not self._dirty:
            # nothing to re-solve, but the completion horizon may have moved
            self._schedule_wake()
            return
        if self._wake_entry is not None:
            # the pending completion wake is computed from now-stale rates
            self.env.cancel(self._wake_entry)
            self._wake_entry = None
        if self._flush_event is None:
            flush = Event(self.env, name="fluid.flush")
            flush._ok = True
            flush._value = None
            # NORMAL priority: the flush lands *after* every same-instant
            # event already in the queue, so a burst of arrivals (64 movers
            # resuming from the same timeout) batches into one solve.
            self.env.schedule(flush)
            flush.add_callback(self._on_flush)
            self._flush_event = flush

    def _on_flush(self, _event: Event) -> None:
        self._flush_event = None
        if self._dirty:
            self._ensure_current()
        elif self._wake_entry is None:
            # a rate read mid-instant already settled the solve but further
            # changes may have cancelled the wake it scheduled
            self._schedule_wake()

    def _ensure_current(self) -> None:
        """Solve the components touched by dirty links; re-arm the wake."""
        dirty, self._dirty = self._dirty, set()
        # Connected-component closure over the flow<->link bipartite graph.
        # Flows outside the closure share no links with it (directly or
        # transitively), so their max-min rates are unaffected.
        comp_flows: dict[Flow, None] = {}
        comp_links: dict[Link, None] = {}
        stack = sorted(dirty, key=lambda l: l.uid)
        for link in stack:
            comp_links[link] = None
        while stack:
            link = stack.pop()
            for flow in link.flows:
                if flow not in comp_flows:
                    comp_flows[flow] = None
                    for other in flow.links:
                        if other not in comp_links:
                            comp_links[other] = None
                            stack.append(other)
        if comp_flows:
            self._solve(comp_flows, comp_links)
        self._schedule_wake()

    # -- the max-min solve -----------------------------------------------------

    def _signature(self, flows_l: list[Flow],
                   links_l: list[Link]) -> tuple:
        """Canonical content key of a solve's component.

        Captures everything the rate kernels read, in the exact iteration
        order they read it: link capacities (in ``links`` order), per-flow
        ``(weight, max_rate, link indices)`` (in ``flows`` order) and each
        link's membership as flow indices (in ``link.flows`` insertion
        order — the freeze loops walk that order, and float subtraction
        order shapes the low bits of the computed rates).  Two isomorphic
        configurations therefore share one entry, and the replayed vector
        is bit-identical to what the kernel would recompute.
        """
        # One flat tuple instead of nested per-flow tuples: this runs on
        # every solve request (hit or miss), and the flat encoding halves
        # the allocation + hash-dispatch cost.  The two count prefixes and
        # the -1 row terminators make the encoding parseable left-to-right
        # (no field can be -1: capacities/weights > 0, max_rate/indices
        # >= 0), hence injective over configurations.
        parts: list = [len(links_l), len(flows_l)]
        append = parts.append
        link_idx = {}
        for j, link in enumerate(links_l):
            link_idx[id(link)] = j
            append(link.capacity)
        flow_idx = {}
        for i, f in enumerate(flows_l):
            flow_idx[id(f)] = i
            append(f.weight)
            append(f.max_rate)
            for l in f.links:
                append(link_idx[id(l)])
            append(-1)
        for link in links_l:
            for f in link.flows:
                append(flow_idx[id(f)])
            append(-1)
        return tuple(parts)

    def _solve(self, flows: _t.Iterable[Flow], links: _t.Iterable[Link]) -> None:
        """Weighted max-min fair allocation via progressive filling.

        ``flows`` must be closed over ``links``: every flow crossing a link
        in ``links`` is in ``flows`` and vice versa.  Each flow's personal
        ``max_rate`` is honoured by treating it as a candidate bottleneck
        alongside its links.
        """
        t0 = _perf_counter()
        if self._memo_enabled:
            flows_l = list(flows)
            links_l = list(links)
            key = self._signature(flows_l, links_l)
            memo = self._memo
            rates = memo.get(key)
            if rates is not None:
                self.memo_hits += 1
                for f, r in zip(flows_l, rates):
                    f._rate = r
                self.solve_wall_s += _perf_counter() - t0
                return
            self.memo_misses += 1
            self._progressive_fill(flows_l, links_l)
            if len(memo) >= _MEMO_MAX:
                del memo[next(iter(memo))]  # FIFO: oldest insertion first
            memo[key] = tuple(f._rate for f in flows_l)
            self.solve_wall_s += _perf_counter() - t0
            return
        self._progressive_fill(flows, links)
        self.solve_wall_s += _perf_counter() - t0

    def _progressive_fill(self, flows: _t.Iterable[Flow],
                        links: _t.Iterable[Link]) -> None:
        """Run the progressive-filling rate kernel (counted as one solve)."""
        self.solves += 1
        unfrozen = dict.fromkeys(flows)
        if len(unfrozen) == 1:
            # Lone-flow fast path (the common case for a solitary mover):
            # arithmetic-identical to one trip through the loop below.
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
        # Repeated subtraction leaves ~1e-16 residues in live_weight and
        # residual; a link whose flows all froze must read exactly empty,
        # or its ~0/~0 ratio poisons the next bottleneck computation with
        # an arbitrary (even negative) share.
        weight_floor = 1e-9 * max(
            (f.weight for f in unfrozen), default=1.0)

        while unfrozen:
            # Fair share per unit weight on every still-loaded link.
            bottleneck_share = math.inf
            for link, cap in residual.items():
                w = live_weight[link]
                if w > weight_floor:
                    bottleneck_share = min(bottleneck_share,
                                           max(cap, 0.0) / w)
            # Flows capped below the link share freeze at their cap first.
            capped = [f for f in unfrozen
                      if f.max_rate < bottleneck_share * f.weight]
            if capped:
                # Freeze the most-constrained capped flows, then re-iterate.
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
                # Remaining flows traverse no loaded link: unconstrained
                # except by their own caps (handled above), so they can
                # only be flows with max_rate == inf and no links — which
                # start_flow forbids for nbytes > 0.  Freeze at cap anyway.
                for flow in unfrozen:
                    flow._rate = flow.max_rate if math.isfinite(flow.max_rate) else 0.0
                break
            # Freeze every flow whose bottleneck link is saturated at this share.
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
            if not froze_any:  # pragma: no cover - numeric safety valve
                for flow in unfrozen:
                    flow._rate = bottleneck_share * flow.weight
                break

    # -- completion scheduling --------------------------------------------------

    def _recompute_and_reschedule(self) -> None:
        """Eager (``solver="full"``) path: solve everything, re-arm the wake."""
        self._solve(self._flows, self._links.values())
        self._schedule_wake()

    def _schedule_wake(self) -> None:
        """(Re-)arm the next-completion wakeup from current rates.

        Two guard rails before any wake is scheduled:

        * a flow whose ``remaining`` already sits at or below
          ``_EPSILON_BYTES``, or whose ETA is so small that
          ``now + eta == now`` in float, is force-completed *now* — a wake
          scheduled for such a flow would fire at the same instant with
          ``dt == 0``, make no progress, and re-arm itself forever;
        * rate-zero flows contribute no horizon: when every flow is
          rate-zero (starved or ``max_rate == 0``) no wake is scheduled at
          all, and the flow parks until the next ``_mark_dirty`` re-solve
          changes its rate.
        """
        if self._wake_entry is not None:
            self.env.cancel(self._wake_entry)
            self._wake_entry = None
        now = self.env.now
        finished = [flow for flow in self._flows
                    if flow.remaining <= _EPSILON_BYTES
                    or (flow._rate > 0.0
                        and now + flow.remaining / flow._rate <= now)]
        if finished:
            touched: list[Link] = []
            for flow in sorted(finished, key=lambda f: f.fid):
                touched.extend(flow.links)
                self._complete(flow, now)
            if self._incremental:
                # the departures free capacity at this instant; the flush
                # re-solves and re-enters here with the survivors
                self._mark_dirty(touched)
            else:
                self._recompute_and_reschedule()
            return
        horizon = math.inf
        for flow in self._flows:
            if flow._rate > 0.0:
                candidate = flow.remaining / flow._rate
                if candidate < horizon:
                    horizon = candidate
        if not math.isfinite(horizon):
            return
        wake = Event(self.env, name="fluid.wake")
        wake._ok = True
        wake._value = None
        self._wake_entry = self.env.schedule(wake, delay=horizon)
        wake.add_callback(self._on_wake)

    def _on_wake(self, _event: Event) -> None:
        self._wake_entry = None
        self._advance()
        if self._incremental:
            if not self._dirty:
                # nothing actually finished (float slop): just re-arm
                self._schedule_wake()
            # else: _advance marked the departures dirty and scheduled a
            # same-instant flush, which batches with any follow-on arrivals
        else:
            self._recompute_and_reschedule()

    # -- instantaneous queries ------------------------------------------------

    def instantaneous_rate(self, flow: Flow) -> float:
        """Current fair-share rate of an active flow (B/s)."""
        return flow.rate

    def snapshot(self) -> dict[str, float]:
        """Per-link utilisation snapshot for tracing."""
        if self._dirty:
            self._ensure_current()
        return {name: link.utilization for name, link in self._links.items()}
