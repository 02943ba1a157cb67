"""The per-PE converse scheduler loop.

"Tasks are picked up in FIFO order from the run queue and scheduled."
(§IV-B)  The run queue carries both plain messages and prefetched
:class:`~repro.runtime.interception.ReadyTask`s; interception happens right
before delivery, exactly where the paper hooks Converse.
"""

from __future__ import annotations

import inspect
import typing as _t

from repro import hooks as _probe
from repro.errors import EntryMethodError
from repro.runtime.interception import ReadyTask, RetryFetch
from repro.runtime.message import Message
from repro.runtime.pe import PE
from repro.trace.events import TraceCategory

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import CharmRuntime

__all__ = ["STOP", "converse_scheduler", "deliver"]


class _Stop:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<STOP>"


#: sentinel that shuts a PE scheduler down
STOP = _Stop()


def deliver(runtime: "CharmRuntime", pe: PE, message: Message,
            task: _t.Any = None) -> _t.Generator:
    """Execute one entry method on ``pe`` (generator; runs in the PE loop)."""
    chare = message.target
    spec = message.entry
    message.delivered_at = runtime.env.now
    pe.messages_delivered += 1
    if _probe.on_deliver is not None:
        _probe.on_deliver(pe, message, task)

    started = runtime.env.now
    if _probe.on_execute_begin is not None:
        # begin is published before the entry runs so messages sent from
        # inside it can parent on this span (causal send -> execute edges)
        _probe.on_execute_begin(pe.id, message, task, started)
    runtime.current_pe_id = pe.id
    chare._exec_pe_id = pe.id
    result = spec.func(chare, *message.args, **message.kwargs)
    if inspect.isgenerator(result):
        result = yield from result
    elif result is not None and not inspect.isgenerator(result):
        # plain (zero-sim-time) entry method: nothing to drive
        pass
    elapsed = runtime.env.now - started
    pe.note_busy(elapsed)
    pe.tasks_executed += 1
    chare._measured_load += elapsed
    if runtime.tracer.enabled:
        # guard here, not in record(): the lane/label f-strings are the
        # expensive part on the hot path (mirrors the hook-slot discipline)
        runtime.tracer.record(f"pe{pe.id}", TraceCategory.EXECUTE,
                              started, runtime.env.now,
                              label=f"{chare.label}.{spec.name}")
    if _probe.on_execute_end is not None:
        _probe.on_execute_end(pe.id, message, task, started,
                              runtime.env.now, f"{chare.label}.{spec.name}")

    if task is not None and runtime.interceptor is not None:
        post_started = runtime.env.now
        yield from runtime.interceptor.post_process(pe, task)
        pe.note_overhead(runtime.env.now - post_started)
    return result


def converse_scheduler(runtime: "CharmRuntime", pe: PE) -> _t.Generator:
    """The scheduler loop bound to one PE (one simulated process)."""
    pe.started_at = runtime.env.now
    while True:
        item = yield pe.run_queue.get()
        if item is STOP:
            break
        if isinstance(item, ReadyTask):
            yield from deliver(runtime, pe, item.message, task=item.task)
            continue
        if isinstance(item, RetryFetch):
            if runtime.interceptor is not None:
                started = runtime.env.now
                yield from runtime.interceptor.retry(pe)
                pe.note_overhead(runtime.env.now - started)
            continue
        if not isinstance(item, Message):
            raise EntryMethodError(
                f"pe{pe.id}: unexpected run-queue item {item!r}")
        interceptor = runtime.interceptor
        if (interceptor is not None and not item.intercepted
                and interceptor.wants(item)):
            item.intercepted = True
            started = runtime.env.now
            yield from interceptor.intercept(pe, item)
            pe.note_overhead(runtime.env.now - started)
            continue
        yield from deliver(runtime, pe, item)
    pe.stopped_at = runtime.env.now
