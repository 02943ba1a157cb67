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
        self._open = False
        self._waiters: deque[Event] = deque()

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = self.env.event(name=f"{self.name}.wait")
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._open = True
        while self._waiters:
            self._waiters.popleft().succeed()

    def close(self) -> None:
        self._open = False
