"""Causal span tracing: the span DAG behind the critical-path profiler.

A :class:`Span` is a closed interval on one lane (``pe3``, ``io1``) with
*causal parents*: the spans whose completion enabled it.  The tracer is
a subscriber of the probe (:mod:`repro.hooks`, DESIGN.md §16) and builds
the DAG from two groups of its points:

* the **span points** mark begin/end at the instrumented call sites —
  entry-method execution (:func:`repro.runtime.converse.deliver`), block
  fetch/evict (:class:`repro.core.strategies.base.Strategy`) and
  queue-lock charges
  (:meth:`repro.core.manager.OOCManager.charge_queue_op`);
* the **sim-core points** carry the same ordering sources racesan's
  vector clocks are built from — event schedule→callback,
  Store/wait-queue puts, process resumes.
  The tracer threads a *source span id* along those edges instead of a
  clock, which is how a message put into a run queue remembers which
  execute span sent it, across any number of timeout/latency hops.

Causal edges recorded:

* ``send → execute``: a message enqueued while an execute span is open
  (directly or via scheduled events) parents the receiver's span;
* ``submit → fetch``: the first fetch an IO thread issues for a task is
  parented on the span that produced the task's message;
* ``fetch → execute``: an execute span is parented on the last fetch
  span of each of its dependence blocks (resident re-use included).

``parent`` is the primary (latest-enabling) cause; ``causes`` keeps the
full edge set for Perfetto flow arrows and the critical-path walk.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro import hooks as _probe
from repro.trace.events import TraceCategory

__all__ = ["Span", "SpanTracer"]


@dataclasses.dataclass(slots=True)
class Span:
    """One closed interval on one lane, with causal parents."""

    sid: int
    lane: str
    category: TraceCategory
    start: float
    end: float
    label: str = ""
    #: every causal parent span id (HB edges), insertion-ordered
    causes: tuple[int, ...] = ()
    #: the primary (latest-enabling) cause, or None for a root span
    parent: int | None = None
    #: OOC task id this span served, when known
    tid: int | None = None
    #: block name for fetch/evict spans
    block: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """Collects :class:`Span` records and their causal edges.

    Subscribe with :meth:`install` (alongside racesan, simsan or metrics
    if they are on), run the application, then :meth:`uninstall` and
    read :attr:`spans`.
    """

    def __init__(self, env: _t.Any = None):
        self.env = env
        self.spans: list[Span] = []
        self.by_sid: dict[int, Span] = {}
        self._next_sid = 0
        # -- causality state (racesan's ordering sources) ------------------
        self._ambient_actor: str | None = None
        self._actor_names: dict[int, str] = {}
        self._name_counts: dict[str, int] = {}
        #: id(event) -> source span id, snapshotted at schedule time
        self._event_src: dict[int, int] = {}
        #: source span of the event currently being processed
        self._event_snap: int | None = None
        #: actor name -> its currently-open execute span id
        self._open: dict[str, int] = {}
        #: actor name -> (sid, causes) of the open execute span
        self._pending_exec: dict[str, tuple[int, list[int]]] = {}
        #: id(queued item) -> source span id (put→get handoff edge)
        self._item_src: dict[int, int] = {}
        #: lane -> origin span id for the next fetch of the served task
        self._serve_origin: dict[str, int] = {}
        #: lane -> tid of the task the lane is currently serving
        self._lane_task: dict[str, int | None] = {}
        #: id(block) -> span id of the move that (last) made it resident
        self._block_fetch: dict[int, int] = {}

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "SpanTracer":
        _probe.subscribe(self)
        return self

    def uninstall(self) -> None:
        _probe.unsubscribe(self)

    # -- span construction -------------------------------------------------

    def _new_sid(self) -> int:
        sid = self._next_sid
        self._next_sid += 1
        return sid

    def _add(self, sid: int, lane: str, category: TraceCategory,
             start: float, end: float, label: str,
             causes: _t.Sequence[int], *, tid: int | None = None,
             block: str = "") -> Span:
        unique: list[int] = []
        for cause in causes:
            if cause != sid and cause not in unique:
                unique.append(cause)
        # primary parent: the cause that finished (or will finish) last —
        # an open cause (sender still executing) outranks any closed one
        parent: int | None = None
        best = -1.0
        for cause in unique:
            done = self.by_sid.get(cause)
            if done is None:      # still open: latest by construction
                parent = cause
                break
            if done.end >= best:
                best, parent = done.end, cause
        span = Span(sid, lane, category, start, end, label,
                    tuple(unique), parent, tid, block)
        self.spans.append(span)
        self.by_sid[sid] = span
        return span

    # -- current causal source ---------------------------------------------

    def _ctx(self) -> int | None:
        actor = self._ambient_actor
        if actor is not None:
            return self._open.get(actor)
        return self._event_snap

    def _actor_for(self, process: _t.Any) -> str:
        key = id(process)
        name = self._actor_names.get(key)
        if name is None:
            base = getattr(process, "name", None) or "proc"
            count = self._name_counts.get(base, 0)
            self._name_counts[base] = count + 1
            name = base if count == 0 else f"{base}~{count}"
            self._actor_names[key] = name
        return name

    # -- sim-core points: the detector's ordering sources -------------------

    def on_scheduled(self, event: _t.Any) -> None:
        src = self._ctx()
        if src is not None:
            self._event_src[id(event)] = src

    def on_descheduled(self, event: _t.Any) -> None:
        self._event_src.pop(id(event), None)

    def on_processing(self, event: _t.Any) -> None:
        self._event_snap = self._event_src.pop(id(event), None)
        self._ambient_actor = None

    def on_resume(self, process: _t.Any, event: _t.Any) -> None:
        self._ambient_actor = self._actor_for(process)

    def on_handoff_put(self, item: _t.Any) -> None:
        src = self._ctx()
        if src is not None:
            self._item_src[id(item)] = src

    # -- span points: instrumented call sites -------------------------------

    def on_execute_begin(self, pe_id: int, message: _t.Any,
                         task: _t.Any, now: float) -> None:
        sid = self._new_sid()
        causes: list[int] = []
        src = self._item_src.pop(id(message), None)
        if src is not None:
            causes.append(src)
        if task is not None:
            for block in task.blocks:
                fetched = self._block_fetch.get(id(block))
                if fetched is not None:
                    causes.append(fetched)
        actor = f"converse-pe{pe_id}"
        self._open[actor] = sid
        self._pending_exec[actor] = (sid, causes)

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        actor = f"converse-pe{pe_id}"
        pending = self._pending_exec.pop(actor, None)
        self._open.pop(actor, None)
        if pending is None:      # installed mid-run: no matching begin
            return
        sid, causes = pending
        self._add(sid, f"pe{pe_id}", TraceCategory.EXECUTE,
                  started, now, label, causes,
                  tid=None if task is None else task.tid)

    def on_serve(self, task: _t.Any, lane: str) -> None:
        self._lane_task[lane] = task.tid
        src = self._item_src.get(id(task.message))
        if src is not None:
            self._serve_origin[lane] = src

    def on_fetch(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float) -> None:
        causes: list[int] = []
        origin = self._serve_origin.pop(lane, None)
        if origin is not None:
            causes.append(origin)
        sid = self._new_sid()
        self._add(sid, lane, category, started, now,
                  f"fetch {block.name}", causes,
                  tid=self._lane_task.get(lane), block=block.name)
        self._block_fetch[id(block)] = sid

    def on_evict(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float, reason: str) -> None:
        sid = self._new_sid()
        self._add(sid, lane, category, started, now,
                  f"evict {block.name} [{reason}]", (),
                  tid=self._lane_task.get(lane), block=block.name)

    def on_queue_op(self, lane: str, started: float, now: float) -> None:
        self._add(self._new_sid(), lane, TraceCategory.SCHEDULING,
                  started, now, "queue-op", ())

    # -- queries ------------------------------------------------------------

    def lanes(self) -> list[str]:
        return sorted({span.lane for span in self.spans})

    def makespan(self) -> tuple[float, float]:
        """The ``(start, end)`` envelope of every recorded span."""
        if not self.spans:
            return (0.0, 0.0)
        return (min(s.start for s in self.spans),
                max(s.end for s in self.spans))

    def __len__(self) -> int:
        return len(self.spans)
