"""Causal span tracing: the span DAG behind the critical-path profiler.

A :class:`Span` is a closed interval on one lane (``pe3``, ``io1``) with
*causal parents*: the spans whose completion enabled it.
:class:`SpanTracer` keeps one causal record per interval of the run's
one recorder (:class:`repro.trace.Tracer`, DESIGN.md §16), from two
groups of probe points:

* the **span points** are the recorder's interval points, plus the
  begin of an execution and ``on_serve`` — entry-method execution (the
  inline entry body of :func:`repro.runtime.converse.converse_scheduler`),
  block fetch/evict (:class:`repro.core.strategies.base.Strategy`) and
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
import itertools
import typing as _t

from repro import hooks as _probe
from repro.trace.events import TraceCategory
from repro.trace.tracer import Tracer

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
    """A causal layer over the run's recorder.

    Construct it on the run's environment, :meth:`install` it before the
    application (next to racesan, simsan or metrics if they are on), run
    the application, then :meth:`uninstall` and read :attr:`spans`.
    Installing holds the run's recorder (:attr:`tracer`), installing one
    if none is subscribed; the span tracer keeps one causal record per
    interval logged after that, and :attr:`spans` joins the two.
    """

    def __init__(self, env: _t.Any):
        self.env = env
        #: the run's recorder, shared with every other view
        self.tracer = Tracer(env)
        #: how many intervals the log held at install
        self._offset = 0
        #: one per interval logged since install: ``(sid, causes, tid,
        #: block)``, or None for an execute end with no matching begin
        #: (installed mid-run), which gets no span
        self._causal: list[tuple[_t.Any, ...] | None] = []
        #: how many causal records ``_spans`` has been built from
        self._built = 0
        self._spans: list[Span] = []
        self._by_sid: dict[int, Span] = {}
        #: span ids, in begin order for executes and close order otherwise
        self._new_sid = itertools.count().__next__
        #: process -> (sid, causes) of the execute span open on it
        self._open: dict[_t.Any, tuple[int, tuple[int, ...]]] = {}
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

    def install(self) -> "SpanTracer":
        self.tracer.install()
        self._offset = len(self.tracer.events) - len(self._causal)
        _probe.subscribe(self)
        return self

    def uninstall(self) -> None:
        _probe.unsubscribe(self)
        self.tracer.uninstall()

    # -- the span DAG: the log joined with the causal records -------------

    @property
    def spans(self) -> list[Span]:
        """Every closed span, in the order the spans closed."""
        self._build()
        return self._spans

    def _build(self) -> None:
        # Built in close order, a cause with no span yet is one that was
        # still open when its effect closed: it finishes last, so it is
        # the primary parent; otherwise the latest-ending cause is.
        spans, by_sid, first = self._spans, self._by_sid, self._built
        for record, event in zip(self._causal[first:],
                                 self.tracer.events[self._offset + first:]):
            if record is None:
                continue
            sid, causes, tid, block = record
            lane, category, start, end, label, _, reason = event
            parent: int | None = None
            best = -1.0
            for cause in causes:
                done = by_sid.get(cause)
                if done is None:
                    parent = cause
                    break
                if done.end >= best:
                    best, parent = done.end, cause
            if reason is not None:
                label = f"{label} [{reason}]"
            span = Span(sid, lane, category, start, end, label, causes,
                        parent, tid, block)
            spans.append(span)
            by_sid[sid] = span
        self._built = len(self._causal)

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

    # -- span points: the causal record of each logged interval ------------

    def on_execute_begin(self, pe_id: int, message: _t.Any,
                         task: _t.Any, now: float) -> None:
        causes: list[int] = []
        src = self._item_src.pop(message, None)
        if src is not None:
            causes.append(src)
        if task is not None:
            for block in task.blocks:
                fetched = self._block_fetch.get(id(block))
                if fetched is not None and fetched not in causes:
                    causes.append(fetched)
        self._open[self.env.active_process] = (self._new_sid(),
                                               tuple(causes))

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        opened = self._open.pop(self.env.active_process, None)
        self._causal.append(
            None if opened is None else
            (*opened, None if task is None else task.tid, ""))

    def on_serve(self, task: _t.Any, lane: str) -> None:
        self._lane_task[lane] = task.tid
        src = self._item_src.get(task.message)
        if src is not None:
            self._serve_origin[lane] = src

    def on_fetch(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float) -> None:
        origin = self._serve_origin.pop(lane, None)
        sid = self._new_sid()
        self._causal.append((sid, () if origin is None else (origin,),
                             self._lane_task.get(lane), block.name))
        self._block_fetch[id(block)] = sid

    def on_evict(self, block: _t.Any, lane: str, category: TraceCategory,
                 started: float, now: float, reason: str) -> None:
        self._causal.append((self._new_sid(), (), self._lane_task.get(lane),
                             block.name))

    def on_queue_op(self, lane: str, started: float, now: float) -> None:
        self._causal.append((self._new_sid(), (), None, ""))
