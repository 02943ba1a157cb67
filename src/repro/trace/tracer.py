"""Trace collection: the Projections interval recorder."""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent

__all__ = ["Tracer"]

_event = TraceEvent._make
_EXECUTE = TraceCategory.EXECUTE
_SCHEDULING = TraceCategory.SCHEDULING


class Tracer:
    """Collects :class:`TraceEvent` intervals from the probe during a run.

    A subscriber of :mod:`repro.hooks` (DESIGN.md §16), like
    :class:`repro.obs.SpanTracer`: the code that reads the intervals
    calls :meth:`install` right before the application is constructed,
    and :meth:`uninstall` in a ``finally`` once it returns.  Nothing is
    recorded while it is not subscribed.  Besides the intervals it keeps
    :attr:`occupancy`, one ``(time, hbm bytes in use)`` sample per
    completed move, which drives :mod:`repro.trace.occupancy`.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.events: list[TraceEvent] = []
        #: (time, hbm bytes in use) at every completed move
        self.occupancy: list[tuple[float, int]] = []

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "Tracer":
        _probe.subscribe(self)
        return self

    def uninstall(self) -> None:
        _probe.unsubscribe(self)

    def record(self, lane: str, category: TraceCategory, start: float,
               end: float, label: str = "") -> None:
        self.events.append(TraceEvent(lane, category, start, end, label))

    # -- probe points ------------------------------------------------------
    # The simulated clock never runs backwards, so these skip the
    # constructor's start <= end check and build the tuple directly.

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        self.events.append(_event((f"pe{pe_id}", _EXECUTE, started, now,
                                   label)))

    def on_fetch(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float) -> None:
        self.events.append(_event((lane, category, started, now,
                                   f"fetch {block.name}")))

    def on_evict(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float, reason: str) -> None:
        self.events.append(_event((lane, category, started, now,
                                   f"evict {block.name}")))

    def on_queue_op(self, lane: str, started: float, now: float) -> None:
        self.events.append(_event((lane, _SCHEDULING, started, now,
                                   "queue-op")))

    def on_inflight_end(self, hbm_used: int) -> None:
        self.occupancy.append((self.env.now, hbm_used))

    # -- queries ------------------------------------------------------------

    def lanes(self) -> list[str]:
        return sorted({ev.lane for ev in self.events})

    def events_for(self, lane: str) -> list[TraceEvent]:
        return [ev for ev in self.events if ev.lane == lane]

    def total_time(self, category: TraceCategory,
                   lane: str | None = None) -> float:
        return sum(ev.duration for ev in self.events
                   if ev.category is category
                   and (lane is None or ev.lane == lane))

    def clear(self) -> None:
        self.events.clear()
        self.occupancy.clear()

    def __len__(self) -> int:
        return len(self.events)
