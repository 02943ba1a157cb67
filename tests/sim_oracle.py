"""The one-event stepper the kernel's drain loops are held to.

:func:`repro.sim.kernel.drain` walks same-instant batches and
:func:`repro.sim.kernel.drain_keyed` pops the tie-breaker heap; both fuse
the common "resume the waiting process" callback.  :func:`step` does
none of that: it takes exactly one live event off either queue layout and
runs its callbacks one by one (:func:`dispatch`), calling
``Process._resume`` like any other callback.  The tests drive the same
workload both ways and require identical traces.

:func:`peek` reports the next live event's time (sweeping tombstones as
it goes) and :func:`run` is ``Environment.run`` rebuilt on :func:`step`.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop

from repro import hooks as _probe
from repro.errors import DeadlockError, ProcessKilled, SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.process import Process

INF = float("inf")


def peek(env: Environment) -> float:
    """Time of the next scheduled event, or ``inf`` when idle."""
    env._tcache_t = -1.0  # the sweep below may drop buckets
    if env._tie_break is not None:
        heap = env._keyed
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            env._dead -= 1
        return heap[0][0] if heap else INF
    for agenda in (env._agenda_urgent, env._agenda_normal):
        if agenda:
            live = [e for e in agenda if not e._cancelled]
            if len(live) != len(agenda):
                env._dead -= len(agenda) - len(live)
                agenda[:] = live
            if agenda:
                return env._now
    times = env._times
    while times:
        t = times[0]
        live_t = False
        for store in (env._urgent_buckets, env._buckets):
            bucket = store.get(t)
            if bucket is not None:
                keep = [e for e in bucket if not e._cancelled]
                env._dead -= len(bucket) - len(keep)
                if keep:
                    bucket[:] = keep
                    live_t = True
                else:
                    del store[t]
        if live_t:
            return t
        heappop(times)
    return INF


def _next_event(env: Environment) -> Event:
    """Take the next live event off the queue, advancing the clock."""
    if env._tie_break is not None:
        heap = env._keyed
        while heap:
            when, _key, event = heappop(heap)
            if event._cancelled:
                env._dead -= 1
                continue
            env._now = when
            return event
        raise SimulationError("step() on an empty event queue")
    while True:
        urgent, normal = env._agenda_urgent, env._agenda_normal
        if urgent:
            event = urgent.pop(0)
        elif normal:
            event = normal.pop(0)
        elif env._advance_clock():
            continue
        else:
            raise SimulationError("step() on an empty event queue")
        if event._cancelled:
            env._dead -= 1
            continue
        return event


def dispatch(event: Event) -> None:
    """Run an event's callbacks exactly once, clearing its slots first."""
    cb0, event._cb0 = event._cb0, None
    cbs, event._cbs = event._cbs, None
    if cb0 is not None:
        cb0(event)
    if cbs is not None:
        for callback in cbs:
            callback(event)


def interrupt(process: Process, cause: _t.Any = None) -> None:
    """Kill ``process`` by throwing :class:`ProcessKilled` into it.

    The kill is a failed, defused event delivered through the queue; a
    finished process is left alone.
    """
    if process.triggered:
        return
    kill = process.env.event(name=f"interrupt({process.name})")
    kill.fail(ProcessKilled(cause if cause is not None else process.name))
    kill.defuse()
    kill.add_callback(process._resume)


def step(env: Environment) -> None:
    """Process exactly one live event: run its callbacks, surface failures."""
    event = _next_event(env)
    event._processed = True
    env._live -= 1
    if _probe.on_processing is not None:
        _probe.on_processing(event)
    dispatch(event)
    if not event._ok and not event._defused:
        # nobody handled this failure: surface it instead of silently
        # dropping a crashed process
        raise event._value


def run(env: Environment, until: "float | Event | None" = None) -> _t.Any:
    """``Environment.run`` rebuilt on :func:`step` (same stop rules)."""
    if until is None:
        while peek(env) < INF:
            step(env)
        return None
    if not isinstance(until, Event):
        deadline = float(until)
        while peek(env) <= deadline:
            step(env)
        env._now = deadline
        return None
    while not until.processed:
        if peek(env) == INF:
            raise DeadlockError(f"queue drained before {until!r}")
        step(env)
    if not until.ok:
        until.defuse()
        raise until.value
    return until.value
