"""Queued resources: stores and counted resources.

These are the building blocks for the runtime's message queues.  ``Store``
is an unbounded FIFO channel with blocking ``get``; ``PriorityStore`` pops
the smallest item; ``Resource`` models N interchangeable slots.
"""

from __future__ import annotations

import heapq
import typing as _t
from collections import deque
from itertools import count

from repro import hooks as _probe
from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import PENDING, Event

__all__ = ["Store", "PriorityStore", "Resource"]

# Store.get/Resource.request run once per runtime message; cloning
# Event.__init__ inline there (as Environment.timeout does for Timeout)
# saves the constructor call frame.  Keep in sync with Event.__init__ —
# note the deliberately uninitialised ``_defused`` slot.
_new_event = Event.__new__


class Store:
    """Unbounded FIFO channel.

    ``put(item)`` never blocks.  ``get()`` returns an event that fires with
    the next item (immediately if one is queued).  Getters are served FIFO.
    """

    __slots__ = ("env", "name", "_items", "_getters", "_get_name")

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: deque[_t.Any] = deque()
        self._getters: deque[Event] = deque()
        # get() runs once per runtime message; formatting the event name
        # there would dominate the fast path, so build it once
        self._get_name = f"{name}.get"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (for inspection only)."""
        return tuple(self._items)

    def put(self, item: _t.Any) -> None:
        getters = self._getters
        if getters:
            # inlined Event.succeed() minus its already-triggered guard: a
            # parked getter is untriggered by construction
            ev = getters.popleft()
            ev._value = item
            env = self.env
            if env._tie_break is None:
                env._agenda_normal.append(ev)
                env._live += 1
                if _probe.on_scheduled is not None:
                    _probe.on_scheduled(ev)
            else:
                env.schedule(ev)
        else:
            # buffered handoff: the later get() succeeds from the getter's
            # own context, so without this hook the put->get causality edge
            # would be invisible to the race detector
            if _probe.on_handoff_put is not None:
                _probe.on_handoff_put(item)
            self._items.append(item)

    def put_event(self, event: Event) -> None:
        """Event callback: :meth:`put` ``event``'s value (a delayed put).

        put()'s body, inlined: it runs once per runtime message.
        """
        item = event._value
        getters = self._getters
        if getters:
            ev = getters.popleft()
            ev._value = item
            env = self.env
            if env._tie_break is None:
                env._agenda_normal.append(ev)
                env._live += 1
                if _probe.on_scheduled is not None:
                    _probe.on_scheduled(ev)
            else:
                env.schedule(ev)
        else:
            if _probe.on_handoff_put is not None:
                _probe.on_handoff_put(item)
            self._items.append(item)

    def get(self) -> Event:
        env = self.env
        # inlined Event(env, self._get_name): the constructor call frame
        # and the name= keyword cost ~250ns per event at this call rate
        ev = _new_event(Event)
        ev.env = env
        ev.name = self._get_name
        ev._cb0 = None
        ev._cbs = None
        ev._ok = True
        ev._processed = False
        ev._cancelled = False
        if self._items:
            item = self._items.popleft()
            if _probe.on_handoff_get is not None:
                _probe.on_handoff_get(item)
            # inlined Event.succeed() (see put()); ev is freshly created
            ev._value = item
            if env._tie_break is None:
                env._agenda_normal.append(ev)
                env._live += 1
                if _probe.on_scheduled is not None:
                    _probe.on_scheduled(ev)
            else:
                env.schedule(ev)
        else:
            ev._value = PENDING
            self._getters.append(ev)
        return ev

    def try_get(self) -> _t.Any | None:
        """Non-blocking pop; returns None when empty."""
        if self._items:
            item = self._items.popleft()
            if _probe.on_handoff_get is not None:
                _probe.on_handoff_get(item)
            return item
        return None


class PriorityStore(Store):
    """A store that pops the smallest item (heap order, FIFO among equals)."""

    __slots__ = ("_heap", "_seq")

    def __init__(self, env: Environment, name: str = "pstore"):
        super().__init__(env, name=name)
        self._heap: list[tuple[_t.Any, int, _t.Any]] = []
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> tuple:
        return tuple(item for _, _, item in sorted(self._heap))

    def put(self, item: _t.Any, priority: _t.Any = None) -> None:
        key = item if priority is None else priority
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            if _probe.on_handoff_put is not None:
                _probe.on_handoff_put(item)
            heapq.heappush(self._heap, (key, next(self._seq), item))

    def put_event(self, event: Event) -> None:
        self.put(event._value)

    def get(self) -> Event:
        ev = Event(self.env, name=self._get_name)
        if self._heap:
            item = heapq.heappop(self._heap)[2]
            if _probe.on_handoff_get is not None:
                _probe.on_handoff_get(item)
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> _t.Any | None:
        if self._heap:
            item = heapq.heappop(self._heap)[2]
            if _probe.on_handoff_get is not None:
                _probe.on_handoff_get(item)
            return item
        return None


class Resource:
    """N interchangeable slots with FIFO grant order.

    ``request()`` yields until a slot is free; ``release()`` frees one.
    """

    __slots__ = ("env", "name", "capacity", "_in_use", "_waiters",
                 "_req_name")

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        self._req_name = f"{name}.request"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        env = self.env
        # inlined Event(env, self._req_name) — see Store.get()
        ev = _new_event(Event)
        ev.env = env
        ev.name = self._req_name
        ev._cb0 = None
        ev._cbs = None
        ev._ok = True
        ev._processed = False
        ev._cancelled = False
        if self._in_use < self.capacity:
            self._in_use += 1
            # inlined Event.succeed() (see Store.put()); ev is fresh
            if env._tie_break is None:
                ev._value = None
                env._agenda_normal.append(ev)
                env._live += 1
                if _probe.on_scheduled is not None:
                    _probe.on_scheduled(ev)
            else:
                ev._value = PENDING
                ev.succeed()
        else:
            ev._value = PENDING
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        waiters = self._waiters
        if waiters:
            # inlined Event.succeed() (see Store.put()): a parked waiter is
            # untriggered by construction
            ev = waiters.popleft()
            env = self.env
            if env._tie_break is None:
                ev._value = None
                env._agenda_normal.append(ev)
                env._live += 1
                if _probe.on_scheduled is not None:
                    _probe.on_scheduled(ev)
            else:
                ev.succeed()
        else:
            self._in_use -= 1
