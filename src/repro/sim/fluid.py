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

The unit of state is the flow *class*: a small int per distinct
``(weight, max_rate, links)``.  Flows of one class share one rate, and
each class keeps its active flows sorted by ``remaining``.  Arrivals and
departures mark their classes *dirty*; the recompute is deferred to a
flush event at the same simulated timestamp, so any number of
same-instant changes (64 movers starting at once, a whole wave
completing together) cost **one** solve, restricted to the connected
component of the class<->link graph reachable from the dirty classes
(max-min allocations decompose per component).  Rates are never stale
from the outside: reading ``Flow.rate`` / ``Link.utilization`` /
``snapshot()`` settles any pending recompute first, and no simulated
time can pass while classes are dirty.

A memo replays the rates of any component configuration solved before,
keyed by the component's ``(class, count)`` pairs in class-id order and
its link capacities in uid order.  The kernel runs over classes with
multiplicities in class-id order, so it reads nothing the key does not
hold.  Two caches skip recomputing what a flush already knows: the
component of each ``(dirty, live)`` class-mask pair, and the path and
class of each caller ``(weight, max_rate, *links)``.  Both hand back
what the uncached code computes, so no rate, count or event moves
(DESIGN §14).

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
import weakref
from bisect import insort
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
_by_fid = attrgetter("fid")
_by_remaining = attrgetter("remaining")


class Link:
    """A capacity-limited pipe, e.g. the read port of a memory device."""

    __slots__ = ("name", "capacity", "uid", "_network", "_classes")

    def __init__(self, name: str, capacity: float, *, uid: int = 0,
                 network: "FluidNetwork | None" = None):
        if capacity <= 0:
            raise SimulationError(f"link {name!r} capacity must be > 0")
        self.name = name
        #: bytes per second
        self.capacity = float(capacity)
        #: creation index; orders the capacities of a memo key
        self.uid = uid
        #: the owning network, held weakly (the network holds the link)
        self._network = None if network is None else weakref.ref(network)
        #: ids of every flow class crossing this link, live or not, in
        #: creation order (appended when the class is created)
        self._classes: list[int] = []

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of capacity in use."""
        network = None if self._network is None else self._network()
        if network is None:
            return 0.0
        if network._dirty:
            network._ensure_current()
        rates, flows = network._class_rate, network._class_flows
        return sum(rates[c] * len(flows[c])
                   for c in self._classes) / self.capacity

    def __repr__(self) -> str:
        return f"<Link {self.name} cap={self.capacity:g}>"


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
        #: the rate this flow left with; stamped when it finishes or is
        #: cancelled (an active flow reads its class's rate instead)
        self._rate = 0.0
        self.done = done
        self.started_at = now
        self.finished_at: float | None = None
        self.network = network
        #: the network's class id for (weight, max_rate, links); set when
        #: the flow joins its class
        self._cls = -1

    @property
    def rate(self) -> float:
        """Current fair-share rate (B/s); settles any pending recompute.

        Once the flow finished or was cancelled: the rate it left with.
        """
        network = self.network
        if self.finished_at is None and network is not None:
            if network._dirty:
                network._ensure_current()
            return network._class_rate[self._cls]
        return self._rate

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    def __repr__(self) -> str:
        links = "+".join(l.name for l in self.links)
        return (f"<Flow #{self.fid} {links} "
                f"{self.remaining:.0f}/{self.total:.0f}B>")


class FluidNetwork:
    """The set of links plus the progressive-filling rate solver."""

    def __init__(self, env: Environment):
        self.env = env
        self._links: dict[str, Link] = {}
        self._fid = count()
        self._link_uid = count()
        self._last_advance = env.now
        #: mask of the classes changed at the current instant (bit c: class c)
        self._dirty = 0
        #: pending same-instant flush event, if any
        self._flush_event: Event | None = None
        #: schedule() token of the pending "next completion" wakeup, if any
        #: (an Event in the batched event loop, a heap entry under a
        #: schedule-explorer tie-breaker; env.cancel accepts either)
        self._wake_entry: object | None = None
        #: rate-kernel invocations (memo hits do NOT count: no kernel ran)
        self.solves = 0
        #: flow classes: (weight, max_rate, links) -> class id.  Per class
        #: id: that key, its links in uid order, its rate, and its active
        #: flows sorted by ``remaining``
        self._classes: dict[tuple, int] = {}
        #: a caller's resolved ``(weight, max_rate, *links)`` -> (path, class)
        self._paths: dict[tuple, tuple[tuple[Link, ...], int]] = {}
        self._class_keys: list[tuple[float, float, tuple[Link, ...]]] = []
        self._class_links: list[tuple[Link, ...]] = []
        self._class_rate: list[float] = []
        self._class_flows: list[list[Flow]] = []
        #: ids of the classes holding active flows, as a set and a bit mask
        self._live: set[int] = set()
        self._live_bits = 0
        #: component cache: (dirty mask, live mask) -> the component's live
        #: classes in id order and its links in uid order.  Cleared when a
        #: class is created (``Link._classes`` grows); FIFO at _MEMO_MAX.
        self._components: dict[tuple[int, int], tuple[tuple, tuple]] = {}
        # Component memo.  Max-min rates depend only on link capacities
        # and how many flows of each class a component holds, so a
        # configuration seen before replays its {class: rate} dict.  A
        # capacity or membership change changes the key and misses.
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

    # -- flow lifecycle ---------------------------------------------------------

    def start_flow(self, nbytes: float, links: _t.Sequence[Link | str],
                   weight: float = 1.0, max_rate: float = math.inf) -> Flow:
        """Begin a transfer; returns the Flow whose ``.done`` can be awaited.

        A link named more than once in ``links`` counts once.
        """
        if not nbytes >= 0:  # rejects negatives and NaN in one comparison
            raise SimulationError(f"flow size must be >= 0, got {nbytes!r}")
        if not weight > 0:
            raise SimulationError(f"flow weight must be > 0, got {weight!r}")
        if not max_rate >= 0:
            raise SimulationError(
                f"flow max_rate must be >= 0, got {max_rate!r}")
        pkey = (weight, max_rate, *links)
        path = self._paths.get(pkey)
        if path is None:
            resolved = tuple(dict.fromkeys(
                self.link(l) if isinstance(l, str) else l for l in pkey[2:]))
            if not resolved and nbytes > 0:
                raise SimulationError(
                    "a non-empty flow needs at least one link")
        else:
            resolved, cls = path
        env = self.env
        done = Event(env, "flow.done")
        flow = Flow(next(self._fid), resolved, nbytes, weight, max_rate,
                    done, env.now, network=self)
        if nbytes <= _EPSILON_BYTES:
            flow.remaining = 0.0
            flow.finished_at = env.now
            done.succeed()
            return flow
        if path is None:
            ckey = (flow.weight, flow.max_rate, resolved)
            cls = self._classes.get(ckey)
            if cls is None:
                cls = self._classes[ckey] = len(self._class_keys)
                self._class_keys.append(ckey)
                self._class_links.append(tuple(sorted(resolved, key=_by_uid)))
                self._class_rate.append(0.0)
                self._class_flows.append([])
                for link in resolved:
                    link._classes.append(cls)
                self._components.clear()
            self._paths[pkey] = (resolved, cls)
        flow._cls = cls
        self._advance()
        self._live.add(cls)
        self._live_bits |= 1 << cls
        insort(self._class_flows[cls], flow, key=_by_remaining)
        self._mark_dirty(1 << cls)
        return flow

    # -- solver ------------------------------------------------------------------

    def _detach(self, flow: Flow) -> None:
        cls = flow._cls
        flows = self._class_flows[cls]
        flows.remove(flow)
        if not flows:
            self._live.discard(cls)
            self._live_bits &= ~(1 << cls)
        flow._rate = self._class_rate[cls]

    def _advance(self) -> None:
        """Integrate progress since the last rate change; finish flows.

        Every flow of a class gets the same decrement and subtraction
        rounding is monotone, so each class list stays sorted by
        ``remaining`` and its finished flows form a prefix.
        """
        now = self.env.now
        dt = now - self._last_advance
        self._last_advance = now
        if dt < 0:
            raise SimulationError("fluid network clock went backwards")
        if dt == 0:
            return
        if self._dirty:  # pragma: no cover - defensive invariant
            raise SimulationError(
                "fluid rates were stale across a time step (dirty classes "
                "survived past their flush instant)")
        rates, class_flows = self._class_rate, self._class_flows
        finished: list[Flow] = []
        for cls in self._live:
            flows = class_flows[cls]
            step = rates[cls] * dt
            for flow in flows:
                flow.remaining -= step
            if flows[0].remaining > _EPSILON_BYTES:
                continue  # the head has the least left: nothing finished
            for flow in flows:
                if flow.remaining > _EPSILON_BYTES:
                    break
                finished.append(flow)
        if finished:
            self._complete_all(finished, now)

    def _complete_all(self, finished: list[Flow], now: float) -> None:
        """Finish ``finished`` in fid order, then re-solve their classes
        (_advance's sweep and _schedule_wake's force-completion share it)."""
        if len(finished) > 1:
            finished.sort(key=_by_fid)
        classes = 0
        for flow in finished:
            self._detach(flow)
            flow.remaining = 0.0
            flow.finished_at = now
            flow.done.succeed()
            classes |= 1 << flow._cls
        # departures free capacity now; the flush re-solves the survivors
        self._mark_dirty(classes)

    # -- deferred re-solve ---------------------------------------------------

    def _mark_dirty(self, classes: int) -> None:
        """Record a change of the ``classes`` mask; defer the solve."""
        self._dirty |= classes
        if self._wake_entry is not None:
            # the pending completion wake is computed from now-stale rates
            self.env.cancel(self._wake_entry)
            self._wake_entry = None
        if self._flush_event is None:
            flush = Event(self.env, "fluid.flush")
            flush._value = None
            # NORMAL priority: the flush lands *after* every same-instant
            # event already in the queue, so a burst of arrivals (64 movers
            # resuming from the same timeout) batches into one solve.
            self.env.schedule(flush)
            flush._cb0 = self._on_flush
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
        """Solve the component touched by dirty classes; re-arm the wake."""
        dirty, self._dirty = self._dirty, 0
        ckey = (dirty, self._live_bits)
        component = self._components.get(ckey)
        if component is None:
            component = self._component(dirty)
            if len(self._components) >= _MEMO_MAX:  # FIFO, like the memo
                del self._components[next(iter(self._components))]
            self._components[ckey] = component
        classes, links = component
        if classes:
            class_flows = self._class_flows
            key = []
            for cls in classes:
                key.append(cls)
                key.append(len(class_flows[cls]))
            key.append(-1)
            for link in links:
                key.append(link.capacity)
            self._solve(tuple(key), classes, links)
        self._schedule_wake()

    def _component(self, dirty: int) -> tuple[tuple, tuple]:
        """The live classes reached from the ``dirty`` mask, in id order,
        and their links in uid order: the closure over the class<->link
        graph, each link expanded once through its class list filtered by
        liveness.  Dirty classes left without flows only lead the walk to
        their links."""
        class_flows, class_links = self._class_flows, self._class_links
        stack = [cls for cls in range(dirty.bit_length()) if dirty >> cls & 1]
        seen = set(stack)
        expanded: set[Link] = set()
        classes: list[int] = []
        while stack:
            cls = stack.pop()
            if class_flows[cls]:
                classes.append(cls)
            for link in class_links[cls]:
                if link not in expanded:
                    expanded.add(link)
                    for other in link._classes:
                        if other not in seen and class_flows[other]:
                            seen.add(other)
                            stack.append(other)
        links = set(chain.from_iterable([class_links[c] for c in classes]))
        return tuple(sorted(classes)), tuple(sorted(links, key=_by_uid))

    # -- the max-min solve -----------------------------------------------------

    def _solve(self, key: tuple, classes: _t.Sequence[int],
               links: _t.Sequence[Link]) -> None:
        """Set the rate of every class in ``classes``, a closed component.

        ``key`` is the ``(class, count)`` pairs of ``classes`` in class-id
        order, -1, then the capacities of ``links`` in uid order: all the
        kernel reads, so a key solved before replays bit-identical rates.
        """
        memo = self._memo
        rates = memo.get(key)
        if rates is None:
            self.memo_misses += 1
            rates = self._progressive_fill(classes, links)
            if len(memo) >= _MEMO_MAX:
                del memo[next(iter(memo))]  # FIFO: oldest insertion first
            memo[key] = rates
        else:
            self.memo_hits += 1
        class_rate = self._class_rate
        for cls, rate in rates.items():
            class_rate[cls] = rate

    def _progressive_fill(self, classes: _t.Sequence[int],
                          links: _t.Sequence[Link]) -> dict[int, float]:
        """Weighted max-min fair rates per flow class, by progressive filling.

        ``classes`` are the live classes of a closed component in class-id
        order and ``links`` the links they cross, in uid order.  Flows of
        one class cross the same links with the same weight and cap, so
        they always freeze together at one rate: the kernel runs over
        classes with multiplicities and returns ``{class: rate}``.  Each
        class's ``max_rate`` is a candidate bottleneck alongside its
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
        specs, class_links = self._class_keys, self._class_links
        counts = {cls: len(self._class_flows[cls]) for cls in classes}
        if len(classes) == 1 and counts[classes[0]] == 1:
            # Lone-flow fast path (the common case for a solitary mover):
            # arithmetic-identical to one trip through the loop below.
            [cls] = classes
            weight, max_rate, _ = specs[cls]
            share = min(link.capacity / weight for link in class_links[cls])
            if max_rate < share * weight:
                return {cls: max_rate}
            return {cls: share * weight}
        unfrozen = dict.fromkeys(classes)
        rates = dict.fromkeys(classes, 0.0)
        residual = {link: link.capacity for link in links}
        live_weight = dict.fromkeys(links, 0.0)
        for cls in classes:
            weight = specs[cls][0]
            for link in class_links[cls]:
                w = live_weight[link]
                for _ in range(counts[cls]):
                    w += weight
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
                weight = specs[cls][0]
                for link in class_links[cls]:
                    r, w = residual[link], live_weight[link]
                    for _ in range(counts[cls]):
                        r -= rate
                        w -= weight
                    residual[link], live_weight[link] = r, w

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
            # Freeze every class that crosses a link saturated at this
            # share.
            saturated = {link for link, cap in residual.items()
                         if live_weight[link] > weight_floor
                         and max(cap, 0.0) / live_weight[link]
                         <= bottleneck_share * (1 + 1e-12) + 1e-18}
            batch = [c for c in unfrozen
                     if not saturated.isdisjoint(class_links[c])]
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

        * a flow with ``remaining <= _EPSILON_BYTES``, or an ETA so small
          that ``now + eta == now`` in float, is force-completed *now*: its
          wake would fire at this instant with ``dt == 0`` and re-arm
          itself forever;
        * rate-zero flows (starved, or ``max_rate == 0``) contribute no
          horizon and park until the next ``_mark_dirty`` re-solve.

        Both tests are monotone in ``remaining`` over one class's rate, so
        each class is read in sorted order only up to its first flow that
        is not force-completed, whose ETA is the class's minimum.
        """
        if self._wake_entry is not None:
            self.env.cancel(self._wake_entry)
            self._wake_entry = None
        now = self.env.now
        rates, class_flows = self._class_rate, self._class_flows
        finished: list[Flow] = []
        horizon = math.inf
        for cls in self._live:
            rate = rates[cls]
            for flow in class_flows[cls]:
                remaining = flow.remaining
                if remaining > _EPSILON_BYTES:
                    if not rate > 0.0:
                        break
                    eta = remaining / rate
                    if now + eta > now:
                        if eta < horizon:
                            horizon = eta
                        break
                finished.append(flow)
        if finished:
            # the flush re-solves and re-enters here with the survivors
            self._complete_all(finished, now)
            return
        if not math.isfinite(horizon):
            return
        wake = Event(self.env, "fluid.wake")
        wake._value = None
        self._wake_entry = self.env.schedule(wake, delay=horizon)
        wake._cb0 = self._on_wake

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
