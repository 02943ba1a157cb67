"""Vector clocks for the happens-before model of the simulated runtime.

Every *actor* (a simulated process, or the driving script labelled
``main``) owns a clock: a sparse mapping ``actor -> stamp``.  The protocol
is the classic message-passing formulation:

* an actor's clock starts at ``{self: 1}`` — the nonzero own component
  means a fresh actor is never trivially ordered before everyone else;
* **publish** (sending causality: scheduling an event, putting an item in
  a buffered queue, releasing a refcount, settling a move) snapshots the
  sender's clock, then increments the sender's own component — so work the
  sender does *after* the publish is not covered by it;
* **join** (receiving causality: an event callback firing, a buffered
  get, a mover observing releases) merges a published snapshot into the
  receiver's clock component-wise.

An access performed by ``actor`` at own-stamp ``own`` happened-before the
current context iff the current clock's component for ``actor`` is at
least ``own`` — i.e. some publish made after the access reached us.
"""

from __future__ import annotations

import typing as _t

__all__ = ["Clock", "fresh", "join", "happened_before", "format_clock"]

#: sparse vector clock: actor name -> stamp
Clock = dict[str, int]


def fresh(actor: str) -> Clock:
    """A new actor clock with the mandatory nonzero own component."""
    return {actor: 1}


def join(into: Clock, snapshot: _t.Mapping[str, int]) -> None:
    """Merge ``snapshot`` into ``into``, component-wise maximum."""
    for actor, stamp in snapshot.items():
        if into.get(actor, 0) < stamp:
            into[actor] = stamp


def happened_before(actor: str, own: int,
                    current: _t.Mapping[str, int]) -> bool:
    """Did (``actor``, ``own``) reach the context whose clock is ``current``?"""
    return current.get(actor, 0) >= own


def format_clock(clock: _t.Mapping[str, int]) -> str:
    """Compact ``{a@3, b@1, ...}`` rendering (six actors) for race reports."""
    items = sorted(clock.items(), key=lambda kv: (-kv[1], kv[0]))
    shown = ", ".join(f"{actor}@{stamp}" for actor, stamp in items[:6])
    extra = len(items) - 6
    if extra > 0:
        shown += f", +{extra} more"
    return "{" + shown + "}"
