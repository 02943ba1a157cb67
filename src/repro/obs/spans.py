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
  (:meth:`repro.core.manager.OOCManager.charge_queue_op`).  The tracer
  subscribes to the begin and ``on_serve`` only: at each interval point
  the recorder logs the interval and closes the tracer's causal row
  (:class:`repro.trace.tracer.CausalLog`) in the same call;
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
from repro.trace.tracer import CausalLog, Tracer

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
    if none is subscribed, and attaches this layer's :attr:`causal` log
    to it: the recorder closes one causal row per interval it logs after
    that, and :attr:`spans` joins the two.
    """

    def __init__(self, env: _t.Any):
        self.env = env
        #: the run's recorder, shared with every other view
        self.tracer = Tracer(env)
        #: the causal rows the recorder closes, and the state this
        #: layer's probe points keep for it
        self.causal = CausalLog()
        #: how many intervals the log held at install
        self._offset = 0
        #: how many causal rows ``_spans`` has been built from
        self._built = 0
        self._spans: list[Span] = []
        self._by_sid: dict[int, Span] = {}
        #: message -> source span id, stamped at send
        self._item_src: dict[_t.Any, int] = {}
        #: the span that completed the latest reduction (driver sends)
        self._reduce_src: int | None = None

    def install(self) -> "SpanTracer":
        self.tracer.install(causal=self.causal)
        self._offset = len(self.tracer.log) - len(self.causal.sid)
        _probe.subscribe(self)
        return self

    def uninstall(self) -> None:
        """Detach from the recorder and drop the open execute spans and
        unconsumed message sources, so no process or message of the
        finished run stays reachable from here."""
        _probe.unsubscribe(self)
        self.tracer.uninstall()
        self.causal.open.clear()
        self._item_src.clear()

    # -- the span DAG: the log joined with the causal records -------------

    @property
    def spans(self) -> list[Span]:
        """Every closed span, in the order the spans closed."""
        self._build()
        return self._spans

    def _build(self) -> None:
        # Built in close order, a cause with no span yet is one that was
        # still open when its effect closed: it finishes last, so it is
        # the primary parent; otherwise the latest-ending cause is.  A
        # lone cause is the parent either way.
        spans, by_sid, first = self._spans, self._by_sid, self._built
        log, causal = self.tracer.log, self.causal
        row = self._offset + first
        cause_ids = causal.cause_ids
        low = causal.cause_end[first - 1] if first else 0
        for sid, tid, block, high, lane, category, start, end, label, \
                reason in zip(causal.sid[first:], causal.tid[first:],
                              causal.block[first:], causal.cause_end[first:],
                              log.lane[row:], log.category[row:],
                              log.start[row:], log.end[row:],
                              log.label[row:], log.reason[row:]):
            if high == low:
                causes, parent = (), None
            elif high == low + 1:
                parent = cause_ids[low]
                causes = (parent,)
            else:
                causes = tuple(cause_ids[low:high])
                parent, best = None, -1.0
                for cause in causes:
                    done = by_sid.get(cause)
                    if done is None:
                        parent = cause
                        break
                    if done.end >= best:
                        best, parent = done.end, cause
            low = high
            if sid < 0:
                continue
            if reason is not None:
                label = f"{label} [{reason}]"
            span = Span(sid, lane, category, start, end, label, causes,
                        parent, tid, block)
            spans.append(span)
            by_sid[sid] = span
        self._built = len(causal.sid)

    # -- causal sources: stamped where messages and reductions happen ------

    def on_send(self, message: _t.Any) -> None:
        process = self.env.active_process
        if process is None:
            src = self._reduce_src
        else:
            opened = self.causal.open.get(process)
            src = None if opened is None else opened[0]
        if src is not None:
            self._item_src[message] = src

    def on_reduce(self, reducer: _t.Any) -> None:
        opened = self.causal.open.get(self.env.active_process)
        self._reduce_src = None if opened is None else opened[0]

    # -- span points: where a span opens or its task is known -------------

    def on_execute_begin(self, pe_id: int, message: _t.Any,
                         task: _t.Any, now: float) -> None:
        causal = self.causal
        src = self._item_src.pop(message, None)
        causes = [] if src is None else [src]
        if task is not None:
            block_fetch = causal.block_fetch
            for block in task.blocks:
                fetched = block_fetch.get(id(block))
                if fetched is not None and fetched not in causes:
                    causes.append(fetched)
        causal.open[self.env.active_process] = (causal.new_sid(), causes)

    def on_serve(self, task: _t.Any, lane: str) -> None:
        causal = self.causal
        causal.lane_task[lane] = task.tid
        src = self._item_src.get(task.message)
        if src is not None:
            causal.serve_origin[lane] = src
