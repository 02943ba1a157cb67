"""The simulation kernel: the one drain loop behind every ``run()``.

:func:`drain` processes the environment's pending events in exactly
``(time, priority-band, scheduling order)`` order until the queue dries,
a target event has been processed, or the next event lies past a
deadline.  ``Environment.run()``, ``run(until=<float>)`` and
``run(until=<Event>)`` all go through it; only the tie-breaker mode of
the schedule explorer, whose permuted single heap has no batches, is
driven one event at a time by :meth:`Environment.step`.

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
  dispatch.
* **Observers.** Fusion skips exactly two probe points,
  ``on_processing`` and ``on_resume``.  While either has a subscriber,
  every event takes the generic path instead, which calls them; the
  other points fire the same on both paths.  The check is made once per
  batch, so an observer subscribed mid-batch takes over at the next
  batch.
* **Accounting.** ``env._live`` counts every scheduled, uncancelled
  entry.  Scheduling increments it, :meth:`Environment.cancel`
  decrements it, and the loop subtracts the events it processed once per
  batch.  It is exact whenever no batch is being walked.
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.errors import ProcessKilled, SimulationError
from repro.sim.events import PENDING

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.environment import Environment
    from repro.sim.events import Event

__all__ = ["drain"]

_INF = float("inf")

#: resolved lazily on first drain: process.py imports environment.py which
#: imports this module, so a top-level import would be circular
_Process: type | None = None


def drain(env: "Environment", target: "Event | None" = None,
          deadline: float = _INF) -> None:
    """Process pending events in order until a stop condition holds.

    Returns when the queue is dry, right after ``target`` has been
    processed, or when the next pending event lies after ``deadline``
    (events *at* the deadline are processed).  :meth:`Environment.step`
    / :meth:`Environment._dispatch` are the one-event versions of this
    loop and must stay order-identical to it.
    """
    global _Process
    if _Process is None:
        from repro.sim.process import Process
        _Process = Process
    process_t = _Process
    pending = PENDING
    advance = env._advance_clock
    unregister = env.unregister_process
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
            elif advance(deadline):
                continue
            else:
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
                # the callback slots are cleared as in Event._process: a
                # processed event must not keep its waiters alive (a
                # condition and its children would form a cycle)
                event._processed = True
                callback = event._cb0
                event._cb0 = None
                if type(callback) is fusable and event._ok:
                    # -- fused resume: inlined Process._resume; the except
                    # arms mirror it exactly
                    if callback._value is pending:
                        try:
                            nxt = callback._send(event._value)
                        except StopIteration as stop:
                            callback._target = None
                            unregister(callback)
                            callback.succeed(stop.value)
                        except ProcessKilled as killed:
                            callback._target = None
                            unregister(callback)
                            callback._ok = False
                            callback._value = killed
                            callback._defused = True
                            env.schedule(callback)
                        except BaseException as exc:
                            callback._target = None
                            unregister(callback)
                            callback.fail(exc)
                        else:
                            try:
                                callback._target = nxt
                                # inlined add_callback single-waiter
                                # branch (see Process._resume)
                                if nxt._cb0 is None and not nxt._processed:
                                    nxt._cb0 = callback
                                else:
                                    nxt.add_callback(callback)
                            except AttributeError:
                                callback._target = None
                                raise SimulationError(
                                    f"process {callback.name!r} yielded "
                                    f"{nxt!r}; processes may only yield "
                                    "Event instances") from None
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
