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

Flow arrivals and departures mark their links *dirty*; the recompute is
deferred to a flush event at the same simulated timestamp, so any number
of same-instant changes (64 movers starting at once, a whole wave
completing together) cost **one** solve.  The solve itself is restricted
to the connected component of the flow<->link graph reachable from the
dirty links: flows on untouched components keep their rates, which is
exact because max-min allocations decompose per component.  Rates are
never stale from the outside: reading ``Flow.rate`` /
``Link.utilization`` / ``snapshot()`` settles any pending recompute
first, and no simulated time can pass while links are dirty (the flush is
scheduled at the current instant).

A memo replays the rates of any component configuration solved before.
Its key is kept up to date incrementally rather than re-derived from
every flow: each flow gets a small-int *class* for its ``(weight,
max_rate, links)``, and each link keeps how many flows of each class
cross it (``Link._counts``), caching them as flat ``(class, count)``
pairs in class-id order (``Link._enc``) plus its neighbour links,
refreshed only after a flow starts on or leaves it.  A request walks the
cached neighbours to the component's closure and concatenates the
cached pairs link by link in uid order.  The max-min kernel runs over
classes with multiplicities, in class-id order, so it reads nothing the
key does not hold: a configuration reached in another arrival order, or
from another set of dirty links, replays one ``{class: rate}`` dict.
With equal weights the class kernel is bit-identical to walking the
flows in any order; with mixed weights its class-id order is the
definition.

The tests hold this solver to an eager oracle that re-solves every flow on
every link with a per-flow kernel, unmemoized, on each change
(``tests/fluid_oracle.py``): the simulated timelines must agree.

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
from itertools import chain, count
from operator import attrgetter

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event

__all__ = ["Link", "Flow", "FluidNetwork"]

#: Flows with fewer remaining bytes than this are considered complete.
#: (Float progress integration leaves sub-byte residue.)  One shared
#: tolerance: start_flow's instant-complete check, _advance's completion
#: sweep and _schedule_wake's force-completion all compare against it.
_EPSILON_BYTES = 1e-3

#: component memo bound (entries); FIFO eviction.  Steady-state
#: applications cycle through a handful of phase configurations, so a few
#: hundred entries cover every realistic phase alphabet while bounding
#: worst-case memory on adversarial workloads.
_MEMO_MAX = 512

_by_uid = attrgetter("uid")


class Link:
    """A capacity-limited pipe, e.g. the read port of a memory device."""

    __slots__ = ("name", "capacity", "flows", "uid", "network", "_counts",
                 "_enc", "_nbrs")

    def __init__(self, name: str, capacity: float, *, uid: int = 0,
                 network: "FluidNetwork | None" = None):
        if capacity <= 0:
            raise SimulationError(f"link {name!r} capacity must be > 0")
        self.name = name
        #: bytes per second
        self.capacity = float(capacity)
        #: active flows crossing this link, as an insertion-ordered set
        #: (dict keys)
        self.flows: dict["Flow", None] = {}
        #: creation index; orders the links of a memo key
        self.uid = uid
        self.network = network
        #: how many of ``flows`` belong to each flow class
        self._counts: dict[int, int] = {}
        #: ``_counts`` as flat (class, count, ...) pairs in class-id order,
        #: and the links those classes cross; None once a flow starts on or
        #: leaves this link, until the next solve request refreshes it
        self._enc: tuple[int, ...] | None = ()
        self._nbrs: tuple[Link, ...] = ()

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
                 "_rate", "done", "started_at", "finished_at", "network",
                 "_cls")

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
        #: the network's class id for (weight, max_rate, links); set when
        #: the flow joins its links
        self._cls = -1

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

    def __init__(self, env: Environment):
        self.env = env
        self._links: dict[str, Link] = {}
        #: active flows as an insertion-ordered set (dict keys)
        self._flows: dict[Flow, None] = {}
        self._fid = count()
        self._link_uid = count()
        self._last_advance = env.now
        #: links whose flow set changed at the current instant
        self._dirty: set[Link] = set()
        #: pending same-instant flush event, if any
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
        #: flow classes: (weight, max_rate, links) -> class id; per class
        #: id, that key (links with repeats) and its distinct links
        self._classes: dict[tuple, int] = {}
        self._class_keys: list[tuple[float, float, tuple[Link, ...]]] = []
        self._class_links: list[tuple[Link, ...]] = []
        # Component memo.  Max-min rates depend only on the component's
        # *structure* — link capacities and how many flows of each class
        # cross each link — never on remaining bytes or arrival order, so
        # a configuration seen before can replay its cached rates.
        # Content keying subsumes invalidation: a capacity or membership
        # change changes the key and simply misses.  Values are flat
        # {class: rate} dicts.
        self._memo: dict[tuple, dict[int, float]] = {}
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
        ckey = (flow.weight, flow.max_rate, resolved)
        cls = self._classes.get(ckey)
        if cls is None:
            cls = self._classes[ckey] = len(self._class_links)
            self._class_keys.append(ckey)
            self._class_links.append(tuple(dict.fromkeys(resolved)))
        flow._cls = cls
        self._advance()
        self._flows[flow] = None
        for link in self._class_links[cls]:
            link.flows[flow] = None
            counts = link._counts
            counts[cls] = counts.get(cls, 0) + 1
            link._enc = None
        self._mark_dirty(resolved)
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
        self._mark_dirty(flow.links)

    # -- solver ------------------------------------------------------------------

    def _detach(self, flow: Flow) -> None:
        self._flows.pop(flow, None)
        cls = flow._cls
        for link in self._class_links[cls]:
            del link.flows[flow]
            counts = link._counts
            if counts[cls] == 1:
                del counts[cls]
            else:
                counts[cls] -= 1
            link._enc = None

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

    # -- deferred re-solve ---------------------------------------------------

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
        # Connected-component closure over the flow<->link bipartite graph,
        # walked link to link through the cached neighbours.  Flows outside
        # the closure share no links with it (directly or transitively), so
        # their max-min rates are unaffected.  Links left without flows
        # constrain nothing and stay out of the key and the kernel.
        stack = list(dirty)
        seen = set(dirty)
        links: list[Link] = []
        while stack:
            link = stack.pop()
            if link._enc is None:
                self._encode(link)
            if link._enc:
                links.append(link)
                for other in link._nbrs:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        if links:
            links.sort(key=_by_uid)
            key: list = []
            for link in links:
                key.append(link.uid)
                key.append(link.capacity)
                key += link._enc
                key.append(-1)
            self._solve(tuple(key), links)
        self._schedule_wake()

    def _encode(self, link: Link) -> None:
        """Refresh ``link._enc`` and ``link._nbrs`` from its class counts."""
        counts = link._counts
        class_links = self._class_links
        if len(counts) == 1:
            [enc] = counts.items()  # the (class, count) pair is the encoding
            link._enc = enc
            link._nbrs = class_links[enc[0]]
        else:
            enc = link._enc = tuple(
                chain.from_iterable(sorted(counts.items())))
            link._nbrs = tuple(dict.fromkeys(
                chain.from_iterable([class_links[c] for c in enc[::2]])))

    # -- the max-min solve -----------------------------------------------------

    def _solve(self, key: tuple, links: list[Link]) -> None:
        """Set the rates of every flow on ``links``, a closed component.

        ``key`` is, per link of ``links`` (uid order): uid, capacity, its
        ``(class, count)`` pairs in class-id order, -1.  The -1
        terminators make it parseable left to right (uids, classes >= 0;
        capacities, counts > 0), and it holds everything the kernel reads,
        so a key solved before replays the bit-identical rates whatever
        order its flows arrived in.
        """
        memo = self._memo
        rates = memo.get(key)
        if rates is None:
            self.memo_misses += 1
            rates = self._progressive_fill(links)
            if len(memo) >= _MEMO_MAX:
                del memo[next(iter(memo))]  # FIFO: oldest insertion first
            memo[key] = rates
        else:
            self.memo_hits += 1
        for link in links:
            for f in link.flows:
                f._rate = rates[f._cls]

    def _progressive_fill(self, links: list[Link]) -> dict[int, float]:
        """Weighted max-min fair rates per flow class, by progressive filling.

        ``links`` is a closed component in uid order with fresh ``_enc``:
        every flow crossing one of them crosses only links in ``links``.
        Flows of one class cross the same links with the same weight and
        cap, so they always freeze together at one rate: the kernel runs
        over classes with multiplicities and returns ``{class: rate}``.
        Each class's ``max_rate`` is a candidate bottleneck alongside its
        links.  Counted as one solve.

        Nothing here depends on arrival order.  Live weights are summed
        flow by flow in class-id order, and a freeze subtracts from each
        link class by class in class-id order, ``count`` times each, one
        subtraction at a time (``cap - k * x`` is not ``k`` sequential
        subtractions of ``x``).  With equal weights every subtraction in
        one freeze step is the same value, so the result is bit-identical
        to walking the flows in any order.
        """
        self.solves += 1
        specs = self._class_keys
        counts: dict[int, int] = {}
        for link in links:
            counts.update(link._counts)
        if len(counts) == 1:
            [(cls, n)] = counts.items()
            if n == 1:
                # Lone-flow fast path (the common case for a solitary
                # mover): arithmetic-identical to one trip through the
                # loop below.
                weight, max_rate, path = specs[cls]
                share = min(link.capacity / weight for link in path)
                if max_rate < share * weight:
                    return {cls: max_rate}
                return {cls: share * weight}
        unfrozen = dict.fromkeys(sorted(counts))
        rates = dict.fromkeys(unfrozen, 0.0)
        residual = {link: link.capacity for link in links}
        live_weight: dict[Link, float] = {}
        for link in links:
            enc = link._enc
            w = 0.0
            for i in range(0, len(enc), 2):
                cls_weight = specs[enc[i]][0]
                for _ in range(enc[i + 1]):
                    w += cls_weight
            live_weight[link] = w
        # Repeated subtraction leaves ~1e-16 residues in live_weight and
        # residual; a link whose flows all froze must read exactly empty,
        # or its ~0/~0 ratio poisons the next bottleneck computation with
        # an arbitrary (even negative) share.
        weight_floor = 1e-9 * max(specs[c][0] for c in unfrozen)

        def freeze(batch: list[int]) -> None:
            # ``batch`` is in class-id order and its rates are set
            for cls in batch:
                del unfrozen[cls]
                rate = rates[cls]
                weight, _, path = specs[cls]
                n = counts[cls]
                for link in path:
                    for _ in range(n):
                        residual[link] -= rate
                        live_weight[link] -= weight

        while unfrozen:
            # Fair share per unit weight on every still-loaded link.
            bottleneck_share = math.inf
            for link, cap in residual.items():
                w = live_weight[link]
                if w > weight_floor:
                    bottleneck_share = min(bottleneck_share,
                                           max(cap, 0.0) / w)
            # Classes capped below the link share freeze at their cap first.
            capped = [c for c in unfrozen
                      if specs[c][1] < bottleneck_share * specs[c][0]]
            if capped:
                # Freeze the most-constrained capped classes, then re-iterate.
                tightest = min(specs[c][1] / specs[c][0] for c in capped)
                batch = [c for c in capped
                         if specs[c][1] / specs[c][0] <= tightest * (1 + 1e-12)]
                for cls in batch:
                    rates[cls] = specs[cls][1]
                freeze(batch)
                continue
            if not math.isfinite(bottleneck_share):
                # Remaining classes traverse no loaded link: unconstrained
                # except by their own caps (handled above), so they can
                # only be flows with max_rate == inf and no links — which
                # start_flow forbids for nbytes > 0.  Freeze at cap anyway.
                for cls in unfrozen:
                    cap = specs[cls][1]
                    rates[cls] = cap if math.isfinite(cap) else 0.0
                break
            # Freeze every class whose bottleneck link is saturated at this
            # share.
            saturated = [link for link, cap in residual.items()
                         if live_weight[link] > weight_floor
                         and max(cap, 0.0) / live_weight[link]
                         <= bottleneck_share * (1 + 1e-12) + 1e-18]
            batch = sorted({c for link in saturated for c in link._counts
                            if c in unfrozen})
            if not batch:  # pragma: no cover - numeric safety valve
                for cls in unfrozen:
                    rates[cls] = bottleneck_share * specs[cls][0]
                break
            for cls in batch:
                rates[cls] = bottleneck_share * specs[cls][0]
            freeze(batch)
        return rates

    # -- completion scheduling --------------------------------------------------

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
        finished: list[Flow] = []
        horizon = math.inf
        for flow in self._flows:
            remaining = flow.remaining
            if remaining <= _EPSILON_BYTES:
                finished.append(flow)
            elif flow._rate > 0.0:
                eta = remaining / flow._rate
                if now + eta <= now:
                    finished.append(flow)
                elif eta < horizon:
                    horizon = eta
        if finished:
            touched: list[Link] = []
            for flow in sorted(finished, key=lambda f: f.fid):
                touched.extend(flow.links)
                self._complete(flow, now)
            # the departures free capacity at this instant; the flush
            # re-solves and re-enters here with the survivors
            self._mark_dirty(touched)
            return
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
        if not self._dirty:
            # nothing actually finished (float slop): just re-arm
            self._schedule_wake()
        # else: _advance marked the departures dirty and scheduled a
        # same-instant flush, which batches with any follow-on arrivals

    # -- instantaneous queries ------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-link utilisation snapshot for tracing."""
        if self._dirty:
            self._ensure_current()
        return {name: link.utilization for name, link in self._links.items()}
