"""Trace collection: the one recorder of a run."""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent

__all__ = ["Tracer"]

_new = tuple.__new__
_EXECUTE = TraceCategory.EXECUTE
_SCHEDULING = TraceCategory.SCHEDULING


class Tracer:
    """Records a run's log from the probe: intervals, samples and moves.

    The code that reads the log calls :meth:`install` right before the
    application is constructed, and :meth:`uninstall` in a ``finally``
    once it returns (DESIGN.md §16).  The log is four lists, each event
    appended once: :attr:`events`, one :class:`TraceEvent` per execute,
    fetch, evict and queue operation; :attr:`occupancy`, one ``(time,
    hbm bytes in use)`` sample per completed move; :attr:`moves`, the
    mover's ``("start", time)``, ``("rollback", time, src, dst)`` and
    ``("end", time, src, dst, nbytes, started)`` records, by device
    name; and
    :attr:`tallies`, one ``(kind, lane or device)`` per fetch outcome
    and allocation failure.  Projections, spans and metrics are views
    over this log.  Installed on an environment that already has a
    recorder subscribed, a tracer subscribes nothing and reads that
    recorder's log; :meth:`uninstall` releases only its own hold, and
    the recorder stays subscribed while any hold remains.  Execute and
    queue-op intervals are logged only while a hold reads them.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.events: list[TraceEvent] = []
        self.occupancy: list[tuple[float, int]] = []
        self.moves: list[tuple[_t.Any, ...]] = []
        self.tallies: list[tuple[str, str]] = []
        #: the recorder this tracer holds while installed (maybe itself)
        self._held: Tracer | None = None
        #: installed tracers holding this one as their recorder
        self._holds = 0
        #: whether this tracer's hold reads the execute and queue-op
        #: intervals, and (on a recorder) how many holds do
        self._reads = False
        self._readers = 0

    # -- lifecycle ---------------------------------------------------------

    def install(self, *, intervals: bool = True) -> "Tracer":
        """Hold the run's recorder, subscribing this tracer if there is
        none; ``intervals=False`` holds it without reading the execute
        and queue-op intervals, which it logs only while a hold does."""
        if self._held is None:
            # the recorder already subscribed on this environment, if any
            host = next((observer for observer in _probe._subscribers
                         if isinstance(observer, Tracer)
                         and observer.env is self.env), None)
            if host is None:
                host = self
                _probe.subscribe(self)
            self.events, self.occupancy = host.events, host.occupancy
            self.moves, self.tallies = host.moves, host.tallies
            host._holds += 1
            self._reads = intervals
            host._readers += intervals
            host._bind_intervals()
            self._held = host
        return self

    def uninstall(self) -> None:
        host, self._held = self._held, None
        if host is not None:
            host._holds -= 1
            host._readers -= self._reads
            if host._holds:
                host._bind_intervals()
            else:
                _probe.unsubscribe(host)

    def _bind_intervals(self) -> None:
        # an instance attribute set to None hides the method from the probe
        for point in ("on_execute_end", "on_queue_op"):
            if self._readers:
                self.__dict__.pop(point, None)
            else:
                setattr(self, point, None)
        _probe.refresh()

    # -- probe points: intervals -------------------------------------------
    # The simulated clock never runs backwards, so these skip the
    # constructor's start <= end check (and ``_make``'s length check) and
    # build the tuple directly.

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        self.events.append(_new(TraceEvent, (
            f"pe{pe_id}", _EXECUTE, started, now, label, None, None)))

    def on_fetch(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float) -> None:
        self.events.append(_new(TraceEvent, (
            lane, category, started, now, f"fetch {block.name}",
            block.nbytes, None)))

    def on_evict(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float, reason: str) -> None:
        self.events.append(_new(TraceEvent, (
            lane, category, started, now, f"evict {block.name}",
            block.nbytes, reason)))

    def on_queue_op(self, lane: str, started: float, now: float) -> None:
        self.events.append(_new(TraceEvent, (
            lane, _SCHEDULING, started, now, "queue-op", None, None)))

    # -- probe points: samples, moves and tallies --------------------------

    def on_inflight_end(self, hbm_used: int) -> None:
        self.occupancy.append((self.env.now, hbm_used))

    def on_move_start(self, block: _t.Any, src: _t.Any, dst: _t.Any) -> None:
        self.moves.append(("start", self.env.now))

    def on_move_rollback(self, block: _t.Any, src: _t.Any,
                         dst: _t.Any) -> None:
        self.moves.append(("rollback", self.env.now, src.name, dst.name))

    def on_move_end(self, block: _t.Any, src: _t.Any, dst: _t.Any,
                    nbytes: int, started: float) -> None:
        self.moves.append(("end", self.env.now, src.name, dst.name, nbytes,
                           started))

    def on_alloc_failure(self, allocator: _t.Any, nbytes: int) -> None:
        self.tallies.append(("alloc_failure", allocator.name))

    def on_fetch_hit(self, block: _t.Any, lane: str) -> None:
        self.tallies.append(("hit", lane))

    def on_fetch_joined(self, block: _t.Any, lane: str) -> None:
        self.tallies.append(("joined", lane))

    def on_fetch_issued(self, block: _t.Any, lane: str) -> None:
        self.tallies.append(("issued", lane))

    def on_fetch_canceled(self, block: _t.Any, lane: str) -> None:
        self.tallies.append(("canceled", lane))

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)
