"""Events: the unit of causality in the simulation kernel.

An :class:`Event` is a one-shot future.  Processes wait on events by
``yield``-ing them; the environment resumes the process when the event fires.
Events may *succeed* (carrying a value) or *fail* (carrying an exception that
is re-raised inside every waiting process).

Callback storage is slot-based: the overwhelmingly common case is exactly
one waiter (the process that ``yield``-ed the event), so the first callback
lives in a dedicated ``_cb0`` slot and an overflow list is only allocated
for the second waiter onwards.  This halves the allocations per simulated
event against the previous one-list-per-event layout.
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.errors import SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment

__all__ = ["PENDING", "Event", "Timeout", "AllOf"]


class _Pending:
    """Sentinel for 'this event has not been triggered yet'."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot future bound to an :class:`Environment`.

    Lifecycle::

        created --(succeed/fail)--> triggered --(loop pops it)--> processed

    Callbacks run exactly once, at processing time, in registration
    order.  After processing, newly added callbacks run immediately (so a
    process can always safely wait on an already-finished event).
    """

    __slots__ = ("env", "name", "_cb0", "_cbs", "_value", "_ok", "_defused",
                 "_processed", "_cancelled")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        #: first callback (slot-based fast path; most events have one waiter)
        self._cb0: _t.Callable[[Event], None] | None = None
        #: overflow callbacks, allocated lazily for the second waiter onwards
        self._cbs: list[_t.Callable[[Event], None]] | None = None
        self._value: _t.Any = PENDING
        self._ok = True
        # NOTE: the ``_defused`` slot is *not* initialised here.  It is only
        # ever read behind a ``not _ok`` short-circuit, and every path that
        # clears ``_ok`` (fail(), the ProcessKilled branch of
        # Process._resume) writes it first — skipping the store here saves
        # a measurable slice of event-alloc cost on the hot paths.
        self._processed = False
        #: set by Environment.cancel(); the queue drain loops skip the event
        #: in place instead of paying a per-entry wrapper allocation
        self._cancelled = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event loop has run the callbacks."""
        return self._processed

    @property
    def callbacks(self) -> list[_t.Callable[["Event"], None]] | None:
        """Registered callbacks (``None`` once processed); read-only view."""
        if self._processed:
            return None
        out: list[_t.Callable[[Event], None]] = []
        if self._cb0 is not None:
            out.append(self._cb0)
        if self._cbs is not None:
            out.extend(self._cbs)
        return out

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return self._ok

    @property
    def value(self) -> _t.Any:
        """The success value or the failure exception."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: _t.Any = None) -> "Event":
        """Mark the event successful and schedule callback processing."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # inlined Environment.schedule() fast path: succeed-at-now is the
        # single hottest call in the simulator (every store handoff,
        # resource grant and process resumption lands here)
        env = self.env
        if env._tie_break is None:
            env._agenda_normal.append(self)
            env._live += 1
            if _probe.on_scheduled is not None:
                _probe.on_scheduled(self)
        else:
            env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiters will see ``exception`` raised."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if not hasattr(self, "_defused"):  # lazily initialised; see __init__
            self._defused = False
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so the loop does not re-raise it."""
        self._defused = True

    # -- waiting -----------------------------------------------------------

    def add_callback(self, callback: _t.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs synchronously.
        """
        if self._processed:
            callback(self)
        elif self._cb0 is None and self._cbs is None:
            self._cb0 = callback
        elif self._cbs is None:
            self._cbs = [callback]
        else:
            self._cbs.append(callback)

    def __repr__(self) -> str:
        state = ("processed" if self.processed
                 else "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: _t.Any = None):
        if delay < 0 or delay != delay:
            raise SimulationError(f"bad timeout delay {delay!r}")
        # flattened Event.__init__ (no super() chain): timeouts are created
        # once per PE-loop iteration, and the extra call frame plus the
        # PENDING round trip through succeed() were measurable.  The name
        # is constant; __repr__ still shows the delay.  NOTE: the hot
        # construction path is Environment.timeout(), which clones this
        # body inline — keep the two in sync.
        self.env = env
        self.name = "timeout"
        self._cb0 = None
        self._cbs = None
        self._ok = True
        self._value = value
        self._processed = False
        self._cancelled = False
        self.delay = delay
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:
        state = ("processed" if self.processed
                 else "triggered" if self.triggered else "pending")
        return f"<Timeout {self.delay:g}s {state}>"


class AllOf(Event):
    """Fires when every child event has fired; fails fast on child failure."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: _t.Iterable[Event]):
        super().__init__(env)
        self.events = tuple(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            for ev in self.events:
                ev.add_callback(self._check)

    def _collect(self) -> dict[Event, _t.Any]:
        return {ev: ev.value for ev in self.events if ev.triggered and ev.ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
