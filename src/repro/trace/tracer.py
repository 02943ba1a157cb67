"""Trace collection: the one interval recorder of a run."""

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
    """Records :class:`TraceEvent` intervals from the probe during a run.

    The code that reads the intervals calls :meth:`install` right before
    the application is constructed, and :meth:`uninstall` in a
    ``finally`` once it returns (DESIGN.md §16).  Besides the intervals
    it keeps :attr:`occupancy`, one ``(time, hbm bytes in use)`` sample
    per completed move.  A run has one recorder: installed on an
    environment that already has one subscribed (a
    :class:`repro.obs.SpanTracer`, say), a tracer subscribes nothing and
    reads that recorder's log; :meth:`uninstall` releases only its own
    hold, and the recorder stays subscribed while any hold remains.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.events: list[TraceEvent] = []
        #: (time, hbm bytes in use) at every completed move
        self.occupancy: list[tuple[float, int]] = []
        #: the recorder this tracer holds while installed (maybe itself)
        self._held: Tracer | None = None
        #: installed tracers holding this one as their recorder
        self._holds = 0

    # -- lifecycle ---------------------------------------------------------

    def _host(self) -> "Tracer | None":
        """The recorder already subscribed on this tracer's environment."""
        return next((observer for observer in _probe._subscribers
                     if isinstance(observer, Tracer)
                     and observer.env is self.env), None)

    def install(self) -> "Tracer":
        if self._held is None:
            host = self._host()
            if host is None:
                host = self
                _probe.subscribe(self)
            self.events, self.occupancy = host.events, host.occupancy
            host._holds += 1
            self._held = host
        return self

    def uninstall(self) -> None:
        host, self._held = self._held, None
        if host is not None:
            host._holds -= 1
            if not host._holds:
                _probe.unsubscribe(host)

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

    def __len__(self) -> int:
        return len(self.events)
