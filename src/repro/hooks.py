"""The probe: one catalogue of notify-only points every observer shares.

Every observer of a run — the simsan invariant sanitizer, the racesan
happens-before detector, the run's one recorder (:class:`repro.trace.Tracer`,
whose log metrics fold) and the causal span tracer — watches the runtime
through the module globals below, one per *probe point*.  A point is
named after the ``on_*`` method an observer implements, and its global
holds

* ``None`` when no subscriber implements that method (the default);
* the bound method itself when exactly one subscriber does;
* a fan-out calling every implementing subscriber, in subscription
  order, when several do.

Call sites guard each event with one test and never use a result::

    from repro import hooks as _probe
    ...
    if _probe.on_retain is not None:
        _probe.on_retain(self)

With nothing subscribed that is one module-global load and an ``is not
None`` test per event.  A point that no installed observer implements
stays ``None`` even while others are bound, so it never makes a no-op
call.  Arguments are always positional; return values are discarded.

:func:`subscribe` binds every catalogued ``on_*`` method an observer
has; :func:`unsubscribe` removes the observer from every point again.
The module imports nothing from the rest of the package, so hot modules
import it for free.  DESIGN.md §16 has the catalogue table and the cost
argument.
"""

from __future__ import annotations

import typing as _t

__all__ = ["CATALOGUE", "subscribe", "refresh", "unsubscribe"]

#: a probe point's value: None, one bound method, or a fan-out
Point = _t.Callable[..., None] | None

# -- sim core: the event loop's ordering sources ------------------------------

#: ``(event)`` an event entered the queue
on_scheduled: Point = None
#: ``(event)`` a queued event was cancelled before it ran
on_descheduled: Point = None
#: ``(event)`` the loop is about to run the event's callbacks; the fused
#: resume path of :mod:`repro.sim.kernel` skips it, so the loop stays
#: fused only while this point and ``on_resume`` are None
on_processing: Point = None
#: ``(process, event)`` a process resumes on ``event`` (fused path skips)
on_resume: Point = None
#: ``(item)`` an item was buffered in a Store or a PE wait queue
on_handoff_put: Point = None
#: ``(item)`` a buffered item was taken out
on_handoff_get: Point = None

# -- runtime: messages, reductions, converse delivery --------------------------

#: ``(message)`` ``CharmRuntime.send`` built ``message``; the sender is
#: ``env.active_process`` (None for driver code outside the loop)
on_send: Point = None
#: ``(reducer)`` the last contribution completed ``reducer``
on_reduce: Point = None
#: ``(pe, message, task)`` converse delivered ``message`` on ``pe``
on_deliver: Point = None
#: ``(pe_id, message, task, now)`` an entry method starts executing
on_execute_begin: Point = None
#: ``(pe_id, message, task, started, now, label)`` it finished
on_execute_end: Point = None

# -- memory: block state, allocators, mover, kernel access --------------------

#: ``(block)`` before a refcount increment
on_retain: Point = None
#: ``(block)`` before a refcount decrement (so underflow is visible)
on_release: Point = None
#: ``(block)`` before the block enters MOVING
on_begin_move: Point = None
#: ``(block)`` after the block settled on a device
on_settle: Point = None
#: ``(allocator, nbytes)`` after an allocation was booked
on_alloc: Point = None
#: ``(allocator, nbytes)`` an allocation was rejected (capacity or
#: fragmentation)
on_alloc_failure: Point = None
#: ``(allocator, allocation)`` before a free is booked
on_free: Point = None
#: ``(block, src, dst)`` a move starts
on_move_start: Point = None
#: ``(block, src, dst)`` a move was rolled back on a fragmented destination
on_move_rollback: Point = None
#: ``(block, src, dst, nbytes, started)`` a move completed
on_move_end: Point = None
#: ``(reads, writes)`` a kernel touches these block tuples
on_kernel_access: Point = None

# -- OOC scheduling: strategy fetch/evict, manager -----------------------------

#: ``(task, lane)`` an IO lane starts serving ``task``'s fetches
on_serve: Point = None
#: ``(block, lane)`` a fetch request found the block already in HBM
on_fetch_hit: Point = None
#: ``(block, lane)`` a fetch request joined a move already in flight
on_fetch_joined: Point = None
#: ``(block, lane)`` a fetch move was issued
on_fetch_issued: Point = None
#: ``(block, lane)`` an issued fetch was abandoned (no contiguous space)
on_fetch_canceled: Point = None
#: ``(block, lane, category, started, now)`` a fetch completed
on_fetch: Point = None
#: ``(block, lane, category, started, now, reason)`` an eviction completed
on_evict: Point = None
#: ``(lane, started, now)`` a lock-protected queue operation was charged
on_queue_op: Point = None
#: ``(hbm_used)`` an in-flight move ended; HBM bytes in use right then
on_inflight_end: Point = None

#: every probe point, in declaration order
CATALOGUE: tuple[str, ...] = tuple(
    name for name in __annotations__ if name.startswith("on_"))

_subscribers: list[_t.Any] = []


def _fan_out(methods: tuple[_t.Callable[..., None], ...]
             ) -> _t.Callable[..., None]:
    def fan_out(*args: _t.Any) -> None:
        for method in methods:
            method(*args)
    return fan_out


def refresh() -> None:
    """Rebind every point; call it after a subscriber changed which
    ``on_*`` methods it offers."""
    namespace = globals()
    for point in CATALOGUE:
        methods = tuple(method for method in
                        (getattr(obs, point, None) for obs in _subscribers)
                        if method is not None)
        namespace[point] = (None if not methods
                            else methods[0] if len(methods) == 1
                            else _fan_out(methods))


def subscribe(observer: _t.Any) -> None:
    """Bind every catalogued ``on_*`` method of ``observer`` (idempotent)."""
    if observer is None:
        raise TypeError("cannot subscribe None to the probe")
    if not any(existing is observer for existing in _subscribers):
        _subscribers.append(observer)
        refresh()


def unsubscribe(observer: _t.Any) -> None:
    """Remove ``observer`` from every point; a no-op if it is not bound."""
    kept = [existing for existing in _subscribers if existing is not observer]
    if len(kept) != len(_subscribers):
        _subscribers[:] = kept
        refresh()
