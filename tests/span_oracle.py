"""The event-threaded span tracer the tests hold :class:`SpanTracer` to.

:class:`SpanTracer` stamps each message's causal source where the
message is created (``on_send``, ``on_reduce``).  The oracle here finds
the same sources the long way: it subscribes to the five sim-core
points (``on_scheduled``, ``on_descheduled``, ``on_processing``,
``on_resume``, ``on_handoff_put``) and threads a *source span id* along
every event, the ordering sources racesan builds its vector clocks
from, so a message put into a run queue remembers which execute span
sent it across any number of timeout/latency hops.

One fix over the tracer it replaces: a message handed straight to a
getter parked in ``run_queue.get()`` is never buffered, so no
``on_handoff_put`` fires for it.  :meth:`EventThreadedSpanTracer.on_resume`
sources such a message from the getter event's own source instead.

It shares :class:`SpanTracer`'s span construction, the causal records
the recorder closes and the queries, and replaces only the causal-source
bookkeeping.
Subscribe it next to a :class:`SpanTracer` in one run and compare
``spans`` (and the critical path) for equality.
"""

from __future__ import annotations

import typing as _t

from repro.obs.spans import SpanTracer
from repro.runtime.message import Message


class EventThreadedSpanTracer(SpanTracer):
    """:class:`SpanTracer` with causality threaded through sim-core events."""

    # the oracle must not see the source points it reconstructs
    on_send = None  # type: ignore[assignment]
    on_reduce = None  # type: ignore[assignment]

    def __init__(self, env: _t.Any):
        super().__init__(env)
        self._ambient_actor: str | None = None
        self._actor_names: dict[int, str] = {}
        self._name_counts: dict[str, int] = {}
        #: id(event) -> source span id, snapshotted at schedule time
        self._event_src: dict[int, int] = {}
        #: source span of the event currently being processed
        self._event_snap: int | None = None
        #: actor name -> its currently-open execute span id
        self._open_by_actor: dict[str, int] = {}
        #: id(queued item) -> source span id (put->get handoff edge)
        self._src_by_id: dict[int, int] = {}

    # -- current causal source ---------------------------------------------

    def _ctx(self) -> int | None:
        actor = self._ambient_actor
        if actor is not None:
            return self._open_by_actor.get(actor)
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

    # -- sim-core points -----------------------------------------------------

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
        # a message handed straight to a parked getter was never
        # buffered: its source rode the getter event instead
        item = event._value
        if (type(item) is Message and id(item) not in self._src_by_id
                and self._event_snap is not None):
            self._src_by_id[id(item)] = self._event_snap

    def on_handoff_put(self, item: _t.Any) -> None:
        src = self._ctx()
        if src is not None:
            self._src_by_id[id(item)] = src

    # -- span points ----------------------------------------------------------

    def on_execute_begin(self, pe_id: int, message: _t.Any,
                         task: _t.Any, now: float) -> None:
        causal = self.causal
        sid = causal.new_sid()
        causes: list[int] = []
        src = self._src_by_id.pop(id(message), None)
        if src is not None:
            causes.append(src)
        if task is not None:
            for block in task.blocks:
                fetched = causal.block_fetch.get(id(block))
                if fetched is not None and fetched not in causes:
                    causes.append(fetched)
        self._open_by_actor[f"converse-pe{pe_id}"] = sid
        # the recorder closes the span from here, keyed as it keys it
        causal.open[self.env.active_process] = (sid, causes)

    def on_execute_end(self, pe_id: int, message: _t.Any, task: _t.Any,
                       started: float, now: float, label: str) -> None:
        # the recorder closes the span; the actor's context ends here
        self._open_by_actor.pop(f"converse-pe{pe_id}", None)

    def on_serve(self, task: _t.Any, lane: str) -> None:
        causal = self.causal
        causal.lane_task[lane] = task.tid
        src = self._src_by_id.get(id(task.message))
        if src is not None:
            causal.serve_origin[lane] = src
