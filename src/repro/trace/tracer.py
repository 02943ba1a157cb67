"""Trace collection."""

from __future__ import annotations

from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent

__all__ = ["Tracer"]


class Tracer:
    """Collects :class:`TraceEvent` intervals during a simulation run.

    Tracing can be disabled (``enabled=False``) for large benchmark sweeps;
    aggregate counters on PEs and the OOC manager remain available either
    way.
    """

    def __init__(self, env: Environment, enabled: bool = True):
        self.env = env
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def record(self, lane: str, category: TraceCategory, start: float,
               end: float, label: str = "") -> None:
        if self.enabled:
            self.events.append(TraceEvent(lane, category, start, end, label))

    def begin(self) -> float:
        """Start-of-interval timestamp.

        Usage (inside simulated processes, where ``yield`` happens between
        ``begin`` and the ``finish`` call)::

            mark = tracer.begin()
            ... yield things ...
            tracer.finish(mark, lane, category, label)
        """
        return self.env.now

    def finish(self, started_at: float, lane: str, category: TraceCategory,
               label: str = "") -> float:
        """Close an interval opened with :meth:`begin`; returns duration."""
        end = self.env.now
        self.record(lane, category, started_at, end, label)
        return end - started_at

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

    def __len__(self) -> int:
        return len(self.events)
