"""The IO threads' wake-up signal.

"The IO thread waits conditionally for a signal..." (§IV-B).  A :class:`Gate`
reproduces that protocol inside the DES: it costs no simulated time by
itself but imposes the same ordering, so serialisation effects — e.g. 64
workers funnelling through a single IO thread — emerge the same way they do
on the metal.
"""

from __future__ import annotations

from collections import deque

from repro.sim.environment import Environment
from repro.sim.events import Event

__all__ = ["Gate"]


class Gate:
    """A level-triggered signal: ``wait()`` passes immediately while open.

    This is the wake-up primitive the IO threads need: a worker may signal
    *before* the IO thread goes to sleep; with a plain condvar that signal
    would be lost.  A Gate latches: ``open()`` lets every current and future
    waiter through until ``close()``.
    """

    def __init__(self, env: Environment, name: str = "gate"):
        self.env = env
        self.name = name
        #: True from open() until close(): waiters pass immediately
        self.is_open = False
        self._waiters: deque[Event] = deque()
        # wait() runs once per park; format its event name once
        self._wait_name = f"{name}.wait"

    def wait(self) -> Event:
        ev = Event(self.env, self._wait_name)
        if self.is_open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self.is_open = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def close(self) -> None:
        self.is_open = False
