"""The simulation kernel: the two drain loops behind every ``run()``.

:func:`drain` processes the environment's pending events in exactly
``(time, priority-band, scheduling order)`` order until the queue dries,
a target event has been processed, or the next event lies past a
deadline.  ``Environment.run()``, ``run(until=<float>)`` and
``run(until=<Event>)`` all go through it.  Under a same-instant
tie-breaker, whose permuted single heap has no batches, the same three
forms go through :func:`drain_keyed`, which pops that heap one event at
a time with the same fused resume, generic-callback and failure arms;
the batching and the per-batch rules below are :func:`drain`'s alone.
Neither loop has a one-event twin in ``src/``: ``tests/sim_oracle.py``
holds the plain stepper both are tested against.

* **Batching.** Each pass swaps the current-instant agenda list out
  whole and walks it with a bare ``for``: one container operation per
  *batch* of same-instant events.  Events scheduled meanwhile land in the
  fresh list and form the next batch, which is exactly FIFO order.
  URGENT events (process bootstrap) run ahead of NORMAL ones at the same
  instant, including URGENT events scheduled while a NORMAL batch is
  being walked: their arrival ends the walk early.
* **Stopping.** Whenever a walk ends early (target processed, URGENT
  arrival, unhandled event failure, or any exception out of a callback)
  the unprocessed rest of the batch goes back to the head of its agenda,
  so the next pass, or the next ``run()``, resumes in exact order.
* **Fused resume.** The overwhelmingly common callback is "resume the
  process that yielded this event".  The loop recognises a
  :class:`~repro.sim.process.Process` waiter by type and drives
  ``generator.send`` directly: an inlined :meth:`Process._resume` minus
  the call frame.  Fusion removes call frames; it never reorders
  dispatch.  Both paths set ``env.active_process`` to the process for
  exactly the duration of its ``send`` and clear it on every exit arm.
* **Observers.** Fusion skips exactly two probe points,
  ``on_processing`` and ``on_resume``.  While either has a subscriber,
  every event takes the generic path instead, which calls them; the
  other points fire the same on both paths.  The check is made once per
  batch, so an observer subscribed mid-batch takes over at the next
  batch.
* **Daemons.** Without a deadline, both loops stop as if the queue
  were dry when the clock would advance and every live entry left is a
  daemon timeout (:meth:`Environment.daemon_timeout`).  Both loops
  check this, and the deadline, once per instant.
* **Accounting.** ``env._live`` counts every scheduled, uncancelled
  entry.  Scheduling increments it, :meth:`Environment.cancel`
  decrements it, and the loop subtracts the events it processed once per
  batch.  It is exact whenever no batch is being walked.
"""

from __future__ import annotations

import typing as _t
from heapq import heappop as _heappop
from heapq import heappush as _heappush

from repro import hooks as _probe
from repro.errors import SimulationError
from repro.sim.events import PENDING

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment
    from repro.sim.events import Event

__all__ = ["drain", "drain_keyed"]

_INF = float("inf")

#: resolved lazily on first drain: process.py imports environment.py which
#: imports this module, so a top-level import would be circular
_Process: type | None = None


def _process_type() -> type:
    global _Process
    if _Process is None:
        from repro.sim.process import Process
        _Process = Process
    return _Process


def drain(env: "Environment", target: "Event | None" = None,
          deadline: float = _INF) -> None:
    """Process pending events in order until a stop condition holds.

    Returns when the queue is dry, right after ``target`` has been
    processed, or when the next pending event lies after ``deadline``
    (events *at* the deadline are processed).  The one-event stepper in
    ``tests/sim_oracle.py`` is the reference both loops are held to.
    """
    process_t = _process_type()
    pending = PENDING
    advance = env._advance_clock
    spare: list = []
    while True:
        on_processing = _probe.on_processing
        # observers of the skipped points get the generic path:
        # ``type(cb) is None`` never holds
        fusable = (process_t if on_processing is None
                   and _probe.on_resume is None else None)
        batch = env._agenda_urgent
        urgent = bool(batch)
        if urgent:
            env._agenda_urgent = []
        else:
            batch = env._agenda_normal
            if batch:
                env._agenda_normal = spare
            elif ((env._live > env._daemons or deadline < _INF)
                  and advance(deadline)):
                continue
            else:
                # dry, past the deadline, or (deadline-free) only daemon
                # timeouts are left
                if env._live and not env._times:  # pragma: no cover
                    raise SimulationError(
                        f"{env._live} live entr(ies) unreachable by "
                        "the run loop (queue conservation broken)")
                return
        arrivals = env._agenda_urgent
        skipped = 0
        try:
            for event in batch:
                if event._cancelled:
                    env._dead -= 1
                    skipped += 1
                    continue
                # the callback slots are cleared: a processed event must
                # not keep its waiters alive (a condition and its
                # children would form a cycle)
                event._processed = True
                callback = event._cb0
                event._cb0 = None
                if type(callback) is fusable and event._ok:
                    # -- fused resume: inlined Process._resume, sharing
                    # its exit arm (Process._finish)
                    if callback._value is pending:
                        env.active_process = callback
                        try:
                            nxt = callback._send(event._value)
                        except BaseException as exc:
                            callback._finish(exc)
                        else:
                            env.active_process = None
                            try:
                                # inlined add_callback single-waiter
                                # branch (see Process._resume)
                                if nxt._cb0 is None and not nxt._processed:
                                    nxt._cb0 = callback
                                else:
                                    nxt.add_callback(callback)
                            except AttributeError:
                                raise callback._bad_yield(nxt) from None
                else:
                    # generic callbacks: flow completions, conditions,
                    # hooks, and every event while an observer is on
                    if on_processing is not None:
                        on_processing(event)
                    if callback is not None:
                        callback(event)
                callbacks = event._cbs
                if callbacks is not None:
                    event._cbs = None
                    for extra in callbacks:
                        extra(event)
                if not event._ok and not event._defused:
                    raise event._value  # nobody handled the failure
                if event is target or arrivals:
                    break
        finally:
            done = (len(batch) if event is batch[-1]
                    else batch.index(event) + 1)
            env._live -= done - skipped
            if done < len(batch):
                agenda = env._agenda_urgent if urgent else env._agenda_normal
                agenda[:0] = batch[done:]
            batch.clear()
        if not urgent:
            spare = batch
        if event is target:
            return


def drain_keyed(env: "Environment", target: "Event | None" = None,
                deadline: float = _INF) -> None:
    """:func:`drain` for the tie-breaker heap, one pop per event.

    Same stop conditions, fused resume, generic-callback and failure arms
    as :func:`drain`, but events come off ``env._keyed`` in
    ``(time, priority << 80 | key)`` order.  Nothing is batched: an event
    scheduled by a callback may sort ahead of every queued one at the
    same instant, so the heap head is re-read after every event.  The
    probe points are re-read per event too, so an observer subscribed
    mid-instant takes over at the next event.
    """
    process_t = _process_type()
    pending = PENDING
    heap = env._keyed
    now = env._now
    done = 0
    try:
        while heap:
            entry = _heappop(heap)
            event = entry[2]
            if event._cancelled:
                env._dead -= 1
                continue
            when = entry[0]
            if when > now:
                if when > deadline or (
                        env._daemons and deadline == _INF
                        and env._live - done <= env._daemons):
                    # past the deadline, or only daemon timeouts are left
                    _heappush(heap, entry)
                    return
                env._now = now = when
            done += 1
            event._processed = True
            callback = event._cb0
            event._cb0 = None
            if (type(callback) is process_t and event._ok
                    and _probe.on_processing is None
                    and _probe.on_resume is None):
                # -- fused resume, as in drain()
                if callback._value is pending:
                    env.active_process = callback
                    try:
                        nxt = callback._send(event._value)
                    except BaseException as exc:
                        callback._finish(exc)
                    else:
                        env.active_process = None
                        try:
                            if nxt._cb0 is None and not nxt._processed:
                                nxt._cb0 = callback
                            else:
                                nxt.add_callback(callback)
                        except AttributeError:
                            raise callback._bad_yield(nxt) from None
            else:
                if _probe.on_processing is not None:
                    _probe.on_processing(event)
                if callback is not None:
                    callback(event)
            callbacks = event._cbs
            if callbacks is not None:
                event._cbs = None
                for extra in callbacks:
                    extra(event)
            if not event._ok and not event._defused:
                raise event._value  # nobody handled the failure
            if event is target:
                return
    finally:
        env._live -= done
