"""Causal span tracing: the span DAG behind the critical-path profiler.

A :class:`Span` is a closed interval on one lane (``pe3``, ``io1``) with
*causal parents*: the spans whose completion enabled it.  The tracer is
a subscriber of the probe (:mod:`repro.hooks`, DESIGN.md §16) and builds
the DAG from two groups of its points:

* the **span points** mark begin/end at the instrumented call sites —
  entry-method execution (the inline entry body of
  :func:`repro.runtime.converse.converse_scheduler`), block
  fetch/evict (:class:`repro.core.strategies.base.Strategy`) and
  queue-lock charges
  (:meth:`repro.core.manager.OOCManager.charge_queue_op`);
* the **source points** stamp causality where it is created:
  ``on_send`` when :meth:`~repro.runtime.runtime.CharmRuntime.send`
  builds a message and ``on_reduce`` when a
  :class:`~repro.runtime.reduction.Reducer` completes.

A message's source is the execute span open on the process that sent
it, ``env.active_process``, whether or not the entry has yielded since
it began.  Driver code runs with no process active; its sends take the
span that made the completing contribution of the latest reduction.
The tracer subscribes to none of the sim-core points, so a run with
spans on keeps the kernel's fused resume path.

Causal edges recorded:

* ``send → execute``: a message's source span parents the receiver's
  execute span;
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

    Construct it on the run's environment, subscribe with
    :meth:`install` (alongside racesan, simsan or metrics if they are
    on), run the application, then :meth:`uninstall` and read
    :attr:`spans`.
    """

    def __init__(self, env: _t.Any):
        self.env = env
        self.spans: list[Span] = []
        self.by_sid: dict[int, Span] = {}
        self._next_sid = 0
        #: process -> (sid, causes) of the execute span open on it
        self._open: dict[_t.Any, tuple[int, list[int]]] = {}
        #: message -> source span id, stamped at send
        self._item_src: dict[_t.Any, int] = {}
        #: the span that completed the latest reduction (driver sends)
        self._reduce_src: int | None = None
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

    # -- causal sources: stamped where messages and reductions happen ------

    def on_send(self, message: _t.Any) -> None:
        process = self.env.active_process
        if process is None:
            src = self._reduce_src
        else:
            opened = self._open.get(process)
            src = None if opened is None else opened[0]
        if src is not None:
            self._item_src[message] = src

    def on_reduce(self, reducer: _t.Any) -> None:
        opened = self._open.get(self.env.active_process)
        self._reduce_src = None if opened is None else opened[0]

    # -- span points: instrumented call sites -------------------------------

    def on_execute_begin(self, pe_id: int, message: _t.Any,
                         task: _t.Any, now: float) -> None:
        causes: list[int] = []
        src = self._item_src.pop(message, None)
        if src is not None:
            causes.append(src)
        if task is not None:
            for block in task.blocks:
                fetched = self._block_fetch.get(id(block))
                if fetched is not None:
                    causes.append(fetched)
        self._open[self.env.active_process] = (self._new_sid(), causes)

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        opened = self._open.pop(self.env.active_process, None)
        if opened is None:      # installed mid-run: no matching begin
            return
        sid, causes = opened
        self._add(sid, f"pe{pe_id}", TraceCategory.EXECUTE,
                  started, now, label, causes,
                  tid=None if task is None else task.tid)

    def on_serve(self, task: _t.Any, lane: str) -> None:
        self._lane_task[lane] = task.tid
        src = self._item_src.get(task.message)
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
