"""Simulated synchronisation primitives.

The paper's IO threads synchronise with worker threads through mutexes and
condition variables ("The IO thread waits conditionally for a signal...",
§IV-B).  These classes reproduce that protocol inside the DES: they cost no
simulated time by themselves (lock hold times come from the work done while
holding them) but impose the same ordering constraints, so serialisation
effects — e.g. 64 workers funnelling through a single IO thread — emerge the
same way they do on the metal.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event

__all__ = ["Lock", "Semaphore", "CondVar", "Gate"]


class Lock:
    """A FIFO mutex.  ``yield lock.acquire()``; ``lock.release()``."""

    def __init__(self, env: Environment, name: str = "lock"):
        self.env = env
        self.name = name
        self._locked = False
        self._waiters: deque[Event] = deque()
        #: number of acquisitions that had to wait (contention metric)
        self.contended_acquires = 0
        self.total_acquires = 0

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        """Return an event that fires once the caller holds the lock."""
        ev = self.env.event(name=f"{self.name}.acquire")
        self.total_acquires += 1
        if not self._locked:
            self._locked = True
            ev.succeed()
        else:
            self.contended_acquires += 1
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Semaphore:
    """A counting semaphore with FIFO wakeup."""

    def __init__(self, env: Environment, value: int = 1, name: str = "sem"):
        if value < 0:
            raise SimulationError(f"semaphore initial value must be >= 0, got {value}")
        self.env = env
        self.name = name
        self._value = value
        self._waiters: deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        ev = self.env.event(name=f"{self.name}.acquire")
        if self._value > 0:
            self._value -= 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1


class CondVar:
    """A condition variable (no spurious wakeups; FIFO notify order).

    Unlike pthreads there is no associated mutex: the DES is cooperative, so
    the check-then-wait sequence is already atomic between yields.
    """

    def __init__(self, env: Environment, name: str = "cond"):
        self.env = env
        self.name = name
        self._waiters: deque[Event] = deque()
        self.total_waits = 0
        self.total_notifies = 0

    def wait(self) -> Event:
        """Return an event that fires on the next matching notify."""
        ev = self.env.event(name=f"{self.name}.wait")
        self._waiters.append(ev)
        self.total_waits += 1
        return ev

    def notify(self, n: int = 1) -> int:
        """Wake up to ``n`` waiters; returns how many were woken."""
        woken = 0
        while self._waiters and woken < n:
            self._waiters.popleft().succeed()
            woken += 1
        self.total_notifies += woken
        return woken

    def notify_all(self) -> int:
        return self.notify(len(self._waiters))


class Gate:
    """A level-triggered signal: ``wait()`` passes immediately while open.

    This is the wake-up primitive the IO threads need: a worker may signal
    *before* the IO thread goes to sleep; with a plain condvar that signal
    would be lost.  A Gate latches: ``open()`` lets every current and future
    waiter through until ``close()``.  ``pulse()`` wakes current waiters
    without latching.
    """

    def __init__(self, env: Environment, is_open: bool = False, name: str = "gate"):
        self.env = env
        self.name = name
        self._open = is_open
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

    def pulse(self) -> int:
        """Wake current waiters without leaving the gate open."""
        woken = len(self._waiters)
        while self._waiters:
            self._waiters.popleft().succeed()
        return woken
