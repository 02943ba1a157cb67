"""Generator-based simulated processes.

A :class:`Process` drives a generator: each ``yield``-ed :class:`Event`
suspends the process until the event fires.  A process is itself an event
that fires when the generator returns (value = the generator's return value)
or raises (failure).  This lets processes wait on each other::

    def child(env):
        yield env.timeout(1.0)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        assert result == 42
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.errors import ProcessKilled, SimulationError
from repro.sim.environment import URGENT, Environment
from repro.sim.events import Event, PENDING

__all__ = ["Process"]


class _Init(Event):
    """Internal bootstrap event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: Environment):
        super().__init__(env, name="init")
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running generator coroutine inside the simulation."""

    __slots__ = ("generator", "_send", "_throw")

    def __init__(self, env: Environment, generator: _t.Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}; "
                "did you forget a 'yield'?")
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # bound methods cached once: _resume runs per event on the hottest
        # loop in the simulator, and send/throw lookups add up.  The process
        # itself is callable (``__call__ = _resume``), so it is its own
        # resume callback: the kernel loop recognises a process waiter by
        # type and fuses the resume, and no method object is ever allocated
        self._send = generator.send
        self._throw = generator.throw
        env.register_process(self)
        _Init(env).add_callback(self)

    # -- driving the generator ------------------------------------------------

    def _resume(self, event: Event) -> None:
        # direct slot access throughout: this callback runs once per event
        # on the hottest loop in the simulator, and the property layer
        # (is_alive / ok / value / defuse) costs a measurable fraction
        if self._value is not PENDING:
            return
        if _probe.on_resume is not None:
            _probe.on_resume(self, event)
        env = self.env
        env.active_process = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                event._defused = True
                next_event = self._throw(event._value)
        except BaseException as exc:
            self._finish(exc)
            return
        env.active_process = None

        # Yield-target validation rides on the slot accesses themselves: a
        # non-Event (no _cb0/_processed slots) raises AttributeError, turned
        # into the diagnostic below — the valid path pays no isinstance
        # call.  Yielding an event bound to a *different* Environment is
        # not detected (same as simpy): processes and their events must
        # share one environment.
        try:
            # inlined add_callback() single-waiter branch (the ~universal
            # case: the yielded event has no other waiter yet).  An
            # unprocessed event with _cb0 unset cannot have overflow
            # callbacks either — add_callback always fills _cb0 first and
            # only processing clears it — so _cbs needs no check here.
            if next_event._cb0 is None and not next_event._processed:
                next_event._cb0 = self
            else:
                next_event.add_callback(self)
        except AttributeError:
            raise self._bad_yield(next_event) from None

    def _finish(self, exc: BaseException) -> None:
        """Retire the process after its generator raised ``exc``.

        The one exit arm of every resume, here and in the kernel's fused
        loops: a return succeeds the process with the returned value, a
        kill fails it pre-defused, and any other exception fails it.
        """
        env = self.env
        env.active_process = None
        env.unregister_process(self)
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif isinstance(exc, ProcessKilled):
            self._ok = False
            self._value = exc
            self._defused = True
            env.schedule(self)
        else:
            self.fail(exc)

    def _bad_yield(self, yielded: _t.Any) -> SimulationError:
        """The error for a generator that yielded a non-:class:`Event`."""
        return SimulationError(
            f"process {self.name!r} yielded {yielded!r}; processes may "
            "only yield Event instances")

    # The process is its own resume callback: generic dispatch paths call
    # ``event._cb0(event)`` without caring whether the waiter is a plain
    # function or a process, and the kernel loop fuses the resume after a
    # single ``type(callback) is Process`` check.
    __call__ = _resume
