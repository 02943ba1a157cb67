"""The simulation environment: clock + batched event queue + run loop.

The queue is split into three structures so the hot loop touches the
cheapest one that can serve the next event:

* **agenda** — two FIFO lists (urgent / normal) holding the events due at
  the *current* instant.  ``schedule(delay=0)`` — the overwhelmingly common
  case: every ``succeed()`` cascade — is a single ``list.append``; no heap
  is involved at all.  The drain loop swaps the whole list out and walks it
  with a bare ``for`` (ping-pong batching): one container operation per
  *batch* of same-instant events instead of one pop per event.
* **buckets** — future events grouped by their exact timestamp
  (``dict[time, list[Event]]``).  Same-timestamp cascades (64 movers waking
  from one timeout) cost one heap entry for the whole batch instead of one
  heap push/pop per event.
* **time heap** — a heap of plain floats, one per occupied bucket.  The
  clock advances by popping a time and draining its bucket into the agenda
  in one pass.

Processing order is identical to the previous one-entry-per-heap-push
design: events run in ``(time, priority-band, scheduling order)`` order,
with URGENT (process resumption) ahead of NORMAL at the same instant —
including URGENT events scheduled *while* a normal batch is draining,
which preempt the rest of that batch.  The one deliberate exception: a
``delay > 0`` that rounds to the current instant lands *after* the
already-queued same-instant events instead of interleaving by sequence
number (both orders are deterministic).

Cancellation is O(1): :meth:`cancel` tombstones the event in place and the
drain loops skip it.  When tombstones outnumber live entries (a long
open-loop run cancelling bandwidth wakeups forever), :meth:`_compact`
sweeps them out, so dead entries can no longer accumulate without bound.

When a same-instant tie-breaker is installed (schedule-explorer runs and
report/leaderboard replicates > 0), every entry goes on one heap of
``(time, priority << 80 | key, event)`` tuples instead, where ``key`` is
the tie-breaker's next int key — batched FIFO lists cannot represent a
permuted same-instant order.  ``run()`` drains that heap with
:func:`repro.sim.kernel.drain_keyed` and everything else with
:func:`repro.sim.kernel.drain`.  Both layouts tombstone through
``event._cancelled``.
"""

from __future__ import annotations

import typing as _t
from heapq import heapify as _heapify
from heapq import heappop as _heappop
from heapq import heappush as _heappush
from itertools import count

from repro import hooks as _probe
from repro.errors import DeadlockError, SimulationError
from repro.sim import kernel as _kernel
from repro.sim.events import Event, AllOf, Timeout

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

__all__ = ["Environment"]

#: Priority band for normal events.
NORMAL = 1
#: Priority band for urgent events (process resumption ahead of same-time events).
URGENT = 0

#: compact when tombstones exceed both this floor and the live count
_COMPACT_MIN_DEAD = 64

_INF = float("inf")

#: hoisted for Environment.timeout() (one LOAD_ATTR per timeout otherwise)
_new_timeout = Timeout.__new__


class Environment:
    """Owns the simulated clock and the pending-event structures.

    Typical usage::

        env = Environment()
        env.process(my_generator(env))
        env.run()

    :meth:`schedule` returns the event, which may be passed to
    :meth:`cancel` for O(1) invalidation.  Cancelled entries are
    skipped lazily and swept out wholesale once they outnumber live ones.
    """

    __slots__ = ("_now", "_times", "_buckets", "_urgent_buckets",
                 "_agenda_urgent", "_agenda_normal", "_keyed",
                 "_live", "_dead", "_daemons", "_active", "_tie_break",
                 "_daemon_keys",
                 "_tcache_t", "_tcache", "active_process")

    def __init__(self):
        self._now = 0.0
        #: one-slot bucket cache for timeout(): consecutive timeouts to
        #: the same instant (the 64-lane lockstep shape) skip the float
        #: hash + dict lookup.  Invalidated wholesale wherever a bucket
        #: can leave ``_buckets`` (_advance_clock / _compact).
        self._tcache_t = -1.0
        self._tcache: list[Event] | None = None
        #: heap of bucket timestamps (floats; may hold stale duplicates)
        self._times: list[float] = []
        #: future NORMAL events by exact timestamp
        self._buckets: dict[float, list[Event]] = {}
        #: future URGENT events by exact timestamp (rare: URGENT is only
        #: used for same-instant process bootstrap today)
        self._urgent_buckets: dict[float, list[Event]] = {}
        #: events due at the current instant, FIFO per priority band
        self._agenda_urgent: list[Event] = []
        self._agenda_normal: list[Event] = []
        #: ``(time, priority << 80 | key, event)`` heap (tie-breaker mode)
        self._keyed: list[tuple] = []
        #: number of live (non-cancelled) entries across all structures.
        #: NOTE: while a batch is draining this lags behind by the events
        #: dispatched so far in the batch (flushed at batch end).
        self._live = 0
        #: number of cancelled entries still parked in the structures
        self._dead = 0
        #: how many of the live entries are daemon timeouts
        self._daemons = 0
        #: live processes, for deadlock diagnostics
        self._active: dict[int, "Process"] = {}
        #: the process whose generator is running right now, else None
        #: (SimPy's name); set and cleared around every resume
        self.active_process: "Process | None" = None
        #: the installed tie-breaker's key iterator, else None
        self._tie_break: _t.Iterator[int] | None = None
        #: tie-breaker keys of daemon timeouts: a stream of their own,
        #: above the keys a breaker draws and below the priority bits
        self._daemon_keys = count(1 << 79)

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered :class:`Event` bound to this environment."""
        return Event(self, name)

    def timeout(self, delay: float, value: _t.Any = None) -> Timeout:
        """An event that fires after ``delay`` simulated seconds.

        This is a fully inlined copy of ``Timeout.__init__`` + the
        future-bucket branch of :meth:`schedule`: one timeout is created
        per PE-loop iteration, and the constructor + scheduling call
        layers were a measurable slice of event-churn wall time.  Under a
        tie-breaker the built timeout goes to :meth:`schedule`.
        """
        if not delay >= 0.0:
            return Timeout(self, delay, value)  # validating path: NaN and
            # negative delays fail the >= check and get the real error
        ev = _new_timeout(Timeout)
        ev.env = self
        ev.name = "timeout"
        ev._cb0 = None
        ev._cbs = None
        ev._ok = True
        ev._value = value
        ev._processed = False
        ev._cancelled = False
        ev.delay = delay
        if self._tie_break is not None:
            return self.schedule(ev, delay)
        if delay == 0.0:
            self._agenda_normal.append(ev)
        else:
            t = self._now + delay
            if t == self._tcache_t:
                self._tcache.append(ev)
            else:
                buckets = self._buckets
                bucket = buckets.get(t)
                if bucket is None:
                    bucket = [ev]
                    buckets[t] = bucket
                    _heappush(self._times, t)
                else:
                    bucket.append(ev)
                self._tcache_t = t
                self._tcache = bucket
        self._live += 1
        if _probe.on_scheduled is not None:
            _probe.on_scheduled(ev)
        return ev

    def daemon_timeout(self, delay: float) -> Timeout:
        """A timeout that does not keep a run going.

        ``run()`` and ``run(until=<Event>)`` end, as if the queue were
        dry, once only daemon timeouts are pending at later instants: a
        periodic observer (the metrics flight recorder) then cannot keep
        a finished or deadlocked run alive, and the run ends at the
        instant and with the ``DeadlockError`` it has unobserved.  A run
        to a deadline processes them as any other timeout.
        """
        return _DaemonTimeout(self, delay)

    def _daemon_fired(self, event: Event) -> None:
        self._daemons -= 1

    def all_of(self, events: _t.Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: _t.Generator, name: str = "") -> "Process":
        """Spawn a new simulated process from a generator."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> Event:
        """Queue a triggered event for callback processing at ``now+delay``.

        Returns ``event``, which may be passed to :meth:`cancel`.
        """
        tie_break = self._tie_break
        if tie_break is not None:
            # one heap; the int key orders same-(time, priority) entries
            if not delay >= 0.0:  # negative or NaN
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay!r})")
            _heappush(self._keyed, (self._now + delay,
                                    priority << 80 | next(tie_break), event))
            self._live += 1
            if _probe.on_scheduled is not None:
                _probe.on_scheduled(event)
            return event
        if delay == 0.0:
            # current instant: plain FIFO append, no heap traffic
            if priority == URGENT:
                self._agenda_urgent.append(event)
            else:
                self._agenda_normal.append(event)
        elif delay > 0.0:
            t = self._now + delay
            store = (self._urgent_buckets if priority == URGENT
                     else self._buckets)
            bucket = store.get(t)
            if bucket is None:
                store[t] = [event]
                _heappush(self._times, t)
            else:
                bucket.append(event)
            if t == self._tcache_t and bucket is not self._tcache:
                # defensive: never let the timeout cache alias a bucket
                # this path just replaced (cannot happen today — the
                # cache is invalidated wherever buckets are dropped —
                # but the check is one compare on a cold path)
                self._tcache_t = -1.0  # pragma: no cover
        else:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay!r})")
        self._live += 1
        if _probe.on_scheduled is not None:
            _probe.on_scheduled(event)
        return event

    def set_tie_breaker(self, breaker: _t.Any) -> None:
        """Install a same-instant ordering permuter (``None`` removes it).

        ``breaker.keys()`` must return an endless iterator of distinct
        non-negative ints below ``2**80``; :meth:`schedule` draws one per
        entry.  Events with equal ``(time, priority)`` are then processed
        in key order instead of FIFO, while cross-time/priority ordering
        is untouched.  Must be installed before anything is scheduled:
        the batched FIFO layout cannot retrofit keys onto queued events.
        """
        if self._live or self._dead or self._keyed:
            raise SimulationError(
                "set_tie_breaker() requires an empty event queue")
        self._tie_break = None if breaker is None else iter(breaker.keys())

    def cancel(self, event: Event) -> bool:
        """Invalidate a scheduled event in place (O(1)).

        Its callbacks will never run; the dead entry is discarded lazily
        (and swept wholesale once tombstones outnumber live entries).
        Returns False if the event was already cancelled or processed.
        """
        if event._cancelled or event._processed:
            return False
        if _probe.on_descheduled is not None:
            _probe.on_descheduled(event)
        event._cancelled = True
        self._live -= 1
        self._dead += 1
        if type(event) is _DaemonTimeout:
            self._daemons -= 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()
        return True

    def _compact(self) -> None:
        """Sweep tombstones out of every queue structure.

        Triggered from :meth:`cancel` once dead entries outnumber live
        ones (and exceed a small floor), so the sweep is amortized O(1)
        per cancellation and the structures hold at most
        ``2 * live + 64`` entries at any time.  All containers are
        mutated *in place* — the run loop may alias them.
        """
        self._tcache_t = -1.0  # the sweep below may drop buckets
        if self._tie_break is not None:
            heap = self._keyed
            heap[:] = [e for e in heap if not e[2]._cancelled]
            _heapify(heap)
            self._dead = 0
            return
        for agenda in (self._agenda_urgent, self._agenda_normal):
            if agenda:
                agenda[:] = [e for e in agenda if not e._cancelled]
        for store in (self._buckets, self._urgent_buckets):
            for t in list(store):
                bucket = store[t]
                keep = [e for e in bucket if not e._cancelled]
                if keep:
                    bucket[:] = keep
                else:
                    del store[t]
        times = self._times
        times[:] = list(self._buckets.keys() | self._urgent_buckets.keys())
        _heapify(times)
        # an in-flight drain batch is unreachable from here, so any
        # tombstones it still holds were not swept; the drain loop's
        # per-event decrement may then push _dead slightly negative,
        # which only postpones the next sweep by that many cancels
        self._dead = 0

    # -- introspection -------------------------------------------------------

    def live_entry_count(self) -> int:
        """O(pending) recount of live entries (simsan conservation check).

        Only meaningful at quiescence — an in-flight drain batch is
        invisible to this walk.
        """
        if self._tie_break is not None:
            return sum(1 for e in self._keyed if not e[2]._cancelled)
        n = sum(1 for e in self._agenda_urgent if not e._cancelled)
        n += sum(1 for e in self._agenda_normal if not e._cancelled)
        for store in (self._buckets, self._urgent_buckets):
            for bucket in store.values():
                n += sum(1 for e in bucket if not e._cancelled)
        return n

    # -- run loop -----------------------------------------------------------

    def _advance_clock(self, deadline: float = _INF) -> bool:
        """Drain the next non-empty bucket into the agenda; move the clock.

        Returns False when no live future event exists at or before
        ``deadline``.  The clock only lands on instants that still hold
        at least one live entry.
        """
        self._tcache_t = -1.0  # buckets may leave the dict below
        times = self._times
        buckets, ubuckets = self._buckets, self._urgent_buckets
        if self._dead == 0 and not ubuckets:
            # no tombstones anywhere and no urgent futures (the common
            # case): move the whole bucket without per-event checks
            while times:
                t = _heappop(times)
                if t > deadline:
                    _heappush(times, t)
                    return False
                nb = buckets.pop(t, None)
                if nb is None:
                    continue  # stale duplicate timestamp
                self._agenda_normal.extend(nb)
                self._now = t
                return True
            return False
        while times:
            t = _heappop(times)
            if t > deadline:
                _heappush(times, t)
                return False
            ub = ubuckets.pop(t, None)
            nb = buckets.pop(t, None)
            if ub is None and nb is None:
                continue  # stale duplicate timestamp
            moved = False
            if ub is not None:
                urgent = self._agenda_urgent
                for event in ub:
                    if event._cancelled:
                        self._dead -= 1
                    else:
                        urgent.append(event)
                        moved = True
            if nb is not None:
                normal = self._agenda_normal
                for event in nb:
                    if event._cancelled:
                        self._dead -= 1
                    else:
                        normal.append(event)
                        moved = True
            if moved:
                self._now = t
                return True
        return False

    def run(self, until: "float | Event | None" = None) -> _t.Any:
        """Run until the queue drains, a deadline, or an event fires.

        * ``until=None`` — drain the queue completely.
        * ``until=<float>`` — run to that simulated time.
        * ``until=<Event>`` — run until that event is processed and return
          its value.  Raises :class:`DeadlockError` if the queue drains
          first (the event can then never fire).

        All three go through :func:`repro.sim.kernel.drain`, or
        :func:`repro.sim.kernel.drain_keyed` under a tie-breaker.
        """
        target = None
        deadline = _INF
        if isinstance(until, Event):
            target = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"run(until={deadline!r}) is in the past "
                    f"(now={self._now!r})")
        if target is None or not target._processed:
            if self._tie_break is None:
                _kernel.drain(self, target, deadline)
            else:
                _kernel.drain_keyed(self, target, deadline)

        if target is None:
            if until is not None:
                self._now = deadline
            return None
        if not target._processed:
            raise DeadlockError(
                f"event queue drained before {target!r} fired",
                waiting=self.active_process_names)
        if not target._ok:
            target.defuse()
            raise target._value
        return target._value

    def close(self) -> None:
        """End the run: close every live process, drop every pending event.

        Parked processes get ``GeneratorExit``, which clears their frames;
        dropped events lose their callbacks (the fluid network's pending
        flush holds a bound method of the network).  With nothing pointing
        from here into the run, its graph frees by reference count.  No
        probe point fires; the environment must not be run again.
        """
        for process in list(self._active.values()):
            process.generator.close()
        self._active.clear()
        for events in [self._agenda_urgent, self._agenda_normal,
                       [entry[2] for entry in self._keyed],
                       *self._buckets.values(), *self._urgent_buckets.values()]:
            for event in events:
                event._cb0 = event._cbs = None
        self._agenda_urgent.clear()
        self._agenda_normal.clear()
        self._buckets.clear()
        self._urgent_buckets.clear()
        self._times.clear()
        self._keyed.clear()
        self._tcache_t = -1.0
        self._tcache = None
        self._live = self._dead = self._daemons = 0
        self.active_process = None

    # -- diagnostics ----------------------------------------------------------

    def register_process(self, process: "Process") -> None:
        self._active[id(process)] = process

    def unregister_process(self, process: "Process") -> None:
        self._active.pop(id(process), None)

    @property
    def active_process_names(self) -> tuple[str, ...]:
        """Names of processes that have started and not yet finished."""
        return tuple(sorted(p.name for p in self._active.values()))

    def __repr__(self) -> str:
        return f"<Environment t={self._now:g} pending={self._live}>"


class _DaemonTimeout(Timeout):
    """A timeout counted in ``Environment._daemons`` while it is live
    (:meth:`Environment.daemon_timeout`).

    Under a tie-breaker it draws no key from the breaker, so an observed
    run permutes its own events exactly as the unobserved run does.
    """

    __slots__ = ()

    def __init__(self, env: Environment, delay: float):
        breaker = env._tie_break
        if breaker is None:
            super().__init__(env, delay)
        else:
            env._tie_break = env._daemon_keys
            try:
                super().__init__(env, delay)
            finally:
                env._tie_break = breaker
        env._daemons += 1
        self._cb0 = env._daemon_fired
