"""Trace collection: the one recorder of a run."""

from __future__ import annotations

import itertools
import typing as _t

from repro import hooks as _probe
from repro.sim.environment import Environment
from repro.trace.events import TraceCategory, TraceEvent

__all__ = ["CausalLog", "Log", "Tracer"]

_new = tuple.__new__
_EXECUTE = TraceCategory.EXECUTE
_SCHEDULING = TraceCategory.SCHEDULING


class Log:
    """A run's log, stored column-wise: one list per record field.

    Logging a record appends one item to each column of its kind (the
    interval columns are named after the :class:`TraceEvent` fields), so a
    record adds no container object for the cyclic collector to walk
    (DESIGN.md §16).  Record ``i`` of a kind is item ``i`` of each of its
    columns:

    * intervals, one per execute, fetch, evict and queue operation:
      ``lane``, ``category``, ``start``, ``end``, ``label``, ``nbytes``
      (the moved block's bytes; fetch and evict only) and ``reason``
      (evictions only);
    * occupancy samples, one per completed move: ``occ_time`` and
      ``occ_used``, the HBM bytes in use;
    * mover records: ``move_kind`` (``"start"``, ``"rollback"`` or
      ``"end"``) and ``move_time``; rollbacks and ends add the device
      names ``move_src`` and ``move_dst``, ends ``move_nbytes`` and
      ``move_started`` (None where a kind has no such field);
    * tallies, one per fetch outcome and allocation failure:
      ``tally_kind`` and ``tally_name``, the lane or device.

    :attr:`Tracer.events` and :attr:`Tracer.occupancy` rebuild the
    intervals and the samples as tuples, for the CLI and tests.
    """

    __slots__ = ("lane", "category", "start", "end", "label", "nbytes",
                 "reason", "occ_time", "occ_used", "move_kind", "move_time",
                 "move_src", "move_dst", "move_nbytes", "move_started",
                 "tally_kind", "tally_name")

    def __init__(self) -> None:
        for column in self.__slots__:
            setattr(self, column, [])

    def __len__(self) -> int:
        return len(self.lane)


class CausalLog:
    """A causal layer's records, closed by the recorder.

    The recorder appends one row per interval it logs while the layer is
    attached, column-wise like :class:`Log`: ``sid``, the span id (-1
    for an execute end with no matching begin, which gets no span),
    ``tid``, ``block`` (fetches and evictions) and ``cause_end``, where
    the row's causes end in ``cause_ids`` (row ``i``'s causes are
    ``cause_ids[cause_end[i - 1]:cause_end[i]]``).  The rest is the
    state a row is closed from, which the layer's own probe points keep
    (:class:`repro.obs.SpanTracer`): ``open``, process -> ``(sid,
    causes)`` of the execute span open on it; ``serve_origin``, lane ->
    the origin span of its next fetch; ``lane_task``, lane -> the task
    id it serves; and ``block_fetch``, ``id(block)`` -> the span id of
    the fetch that last made it resident.  ``new_sid`` numbers spans:
    in begin order for executes, in close order otherwise.
    """

    __slots__ = ("sid", "tid", "block", "cause_end", "cause_ids", "new_sid",
                 "open", "serve_origin", "lane_task", "block_fetch")

    def __init__(self) -> None:
        self.sid: list[int] = []
        self.tid: list[int | None] = []
        self.block: list[str] = []
        self.cause_end: list[int] = []
        self.cause_ids: list[int] = []
        self.new_sid = itertools.count().__next__
        self.open: dict[_t.Any, tuple[int, _t.Sequence[int]]] = {}
        self.serve_origin: dict[str, int] = {}
        self.lane_task: dict[str, int | None] = {}
        self.block_fetch: dict[int, int] = {}


class Tracer:
    """Records a run's log from the probe: intervals, samples and moves.

    The code that reads the log calls :meth:`install` right before the
    application is constructed, and :meth:`uninstall` in a ``finally``
    once it returns (DESIGN.md §16).  The log is one :class:`Log`,
    :attr:`log`; Projections, spans and metrics are views over it.
    Installed on an environment that already has a recorder subscribed,
    a tracer subscribes nothing and reads that recorder's log;
    :meth:`uninstall` releases only its own hold, and the recorder stays
    subscribed while any hold remains.  Execute and queue-op intervals
    are logged only while a hold reads them.  A hold may attach a
    :class:`CausalLog` (a :class:`repro.obs.SpanTracer`'s): the recorder
    then closes its causal row of every interval it logs, in the same
    probe call.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.log = Log()
        #: the recorder this tracer holds while installed (maybe itself)
        self._held: Tracer | None = None
        #: installed tracers holding this one as their recorder
        self._holds = 0
        #: whether this tracer's hold reads the execute and queue-op
        #: intervals, and the causal log it attached, if any
        self._reads = False
        self._layer: CausalLog | None = None
        #: on a recorder: how many holds read the intervals, and the
        #: causal logs it closes rows in, in install order
        self._readers = 0
        self._causal: tuple[CausalLog, ...] = ()
        #: pe id -> its lane name, formatted once
        self._pe_lanes: dict[int, str] = {}

    # -- lifecycle ---------------------------------------------------------

    def install(self, *, intervals: bool = True,
                causal: CausalLog | None = None) -> "Tracer":
        """Hold the run's recorder, subscribing this tracer if there is
        none; ``intervals=False`` holds it without reading the execute
        and queue-op intervals, which it logs only while a hold does.
        The recorder closes a row in ``causal`` for every interval it
        logs until :meth:`uninstall`."""
        if self._held is None:
            # the recorder already subscribed on this environment, if any
            host = next((observer for observer in _probe._subscribers
                         if isinstance(observer, Tracer)
                         and observer.env is self.env), None)
            if host is None:
                host = self
                _probe.subscribe(self)
            self.log = host.log
            host._holds += 1
            self._reads = intervals
            host._readers += intervals
            self._layer = causal
            if causal is not None:
                host._causal = (*host._causal, causal)
            host._bind_intervals()
            self._held = host
        return self

    def uninstall(self) -> None:
        host, self._held = self._held, None
        if host is not None:
            host._holds -= 1
            host._readers -= self._reads
            if self._layer is not None:
                host._causal = tuple(layer for layer in host._causal
                                     if layer is not self._layer)
                self._layer = None
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

    # -- views of the log ----------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        """The logged intervals, one :class:`TraceEvent` each."""
        log = self.log
        return [_new(TraceEvent, row) for row in
                zip(*(getattr(log, column) for column in TraceEvent._fields))]

    @property
    def occupancy(self) -> list[tuple[float, int]]:
        """The ``(time, hbm bytes in use)`` samples."""
        return list(zip(self.log.occ_time, self.log.occ_used))

    def __len__(self) -> int:
        return len(self.log)

    # -- probe points: intervals -------------------------------------------

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        log = self.log
        lane = self._pe_lanes.get(pe_id)
        if lane is None:
            lane = self._pe_lanes[pe_id] = f"pe{pe_id}"
        log.lane.append(lane)
        log.category.append(_EXECUTE)
        log.start.append(started)
        log.end.append(now)
        log.label.append(label)
        log.nbytes.append(None)
        log.reason.append(None)
        for causal in self._causal:
            # the span opened on this process by its execute begin
            opened = causal.open.pop(self.env.active_process, None)
            if opened is None:
                causal.sid.append(-1)
                causal.tid.append(None)
            else:
                causal.sid.append(opened[0])
                causal.tid.append(None if task is None else task.tid)
                if opened[1]:
                    causal.cause_ids.extend(opened[1])
            causal.block.append("")
            causal.cause_end.append(len(causal.cause_ids))

    def on_fetch(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float) -> None:
        log = self.log
        log.lane.append(lane)
        log.category.append(category)
        log.start.append(started)
        log.end.append(now)
        log.label.append(f"fetch {block.name}")
        log.nbytes.append(block.nbytes)
        log.reason.append(None)
        for causal in self._causal:
            # the first fetch for a served task is caused by its message
            origin = causal.serve_origin.pop(lane, None)
            if origin is not None:
                causal.cause_ids.append(origin)
            causal.block_fetch[id(block)] = sid = causal.new_sid()
            causal.sid.append(sid)
            causal.tid.append(causal.lane_task.get(lane))
            causal.block.append(block.name)
            causal.cause_end.append(len(causal.cause_ids))

    def on_evict(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float, reason: str) -> None:
        log = self.log
        log.lane.append(lane)
        log.category.append(category)
        log.start.append(started)
        log.end.append(now)
        log.label.append(f"evict {block.name}")
        log.nbytes.append(block.nbytes)
        log.reason.append(reason)
        for causal in self._causal:
            causal.sid.append(causal.new_sid())
            causal.tid.append(causal.lane_task.get(lane))
            causal.block.append(block.name)
            causal.cause_end.append(len(causal.cause_ids))

    def on_queue_op(self, lane: str, started: float, now: float) -> None:
        log = self.log
        log.lane.append(lane)
        log.category.append(_SCHEDULING)
        log.start.append(started)
        log.end.append(now)
        log.label.append("queue-op")
        log.nbytes.append(None)
        log.reason.append(None)
        for causal in self._causal:
            causal.sid.append(causal.new_sid())
            causal.tid.append(None)
            causal.block.append("")
            causal.cause_end.append(len(causal.cause_ids))

    # -- probe points: samples, moves and tallies --------------------------

    def on_inflight_end(self, hbm_used: int) -> None:
        log = self.log
        log.occ_time.append(self.env.now)
        log.occ_used.append(hbm_used)

    def on_move_start(self, block: _t.Any, src: _t.Any, dst: _t.Any) -> None:
        log = self.log
        log.move_kind.append("start")
        log.move_time.append(self.env.now)
        log.move_src.append(None)
        log.move_dst.append(None)
        log.move_nbytes.append(None)
        log.move_started.append(None)

    def on_move_rollback(self, block: _t.Any, src: _t.Any,
                         dst: _t.Any) -> None:
        log = self.log
        log.move_kind.append("rollback")
        log.move_time.append(self.env.now)
        log.move_src.append(src.name)
        log.move_dst.append(dst.name)
        log.move_nbytes.append(None)
        log.move_started.append(None)

    def on_move_end(self, block: _t.Any, src: _t.Any, dst: _t.Any,
                    nbytes: int, started: float) -> None:
        log = self.log
        log.move_kind.append("end")
        log.move_time.append(self.env.now)
        log.move_src.append(src.name)
        log.move_dst.append(dst.name)
        log.move_nbytes.append(nbytes)
        log.move_started.append(started)

    def on_alloc_failure(self, allocator: _t.Any, nbytes: int) -> None:
        self._tally("alloc_failure", allocator.name)

    def on_fetch_hit(self, block: _t.Any, lane: str) -> None:
        self._tally("hit", lane)

    def on_fetch_joined(self, block: _t.Any, lane: str) -> None:
        self._tally("joined", lane)

    def on_fetch_issued(self, block: _t.Any, lane: str) -> None:
        self._tally("issued", lane)

    def on_fetch_canceled(self, block: _t.Any, lane: str) -> None:
        self._tally("canceled", lane)

    def _tally(self, kind: str, name: str) -> None:
        log = self.log
        log.tally_kind.append(kind)
        log.tally_name.append(name)
