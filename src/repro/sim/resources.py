"""Queued resources: the FIFO store behind the runtime's message queues.

``Store`` is an unbounded FIFO channel with blocking ``get``: every PE run
queue is one, so each runtime message passes through ``put``/``get`` once.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro import hooks as _probe
from repro.sim.environment import Environment
from repro.sim.events import PENDING, Event

__all__ = ["Store"]

# Store.get runs once per runtime message; cloning Event.__init__ inline
# there (as Environment.timeout does for Timeout) saves the constructor
# call frame.  Keep in sync with Event.__init__ — note the deliberately
# uninitialised ``_defused`` slot.
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
