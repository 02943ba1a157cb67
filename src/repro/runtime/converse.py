"""The per-PE converse scheduler loop.

"Tasks are picked up in FIFO order from the run queue and scheduled."
(§IV-B)  The run queue carries both plain messages and prefetched
:class:`~repro.runtime.interception.ReadyTask`s; interception happens right
before delivery, exactly where the paper hooks Converse.
"""

from __future__ import annotations

import typing as _t
from types import GeneratorType as _GeneratorType

from repro import hooks as _probe
from repro.errors import EntryMethodError
from repro.runtime.interception import ReadyTask, RetryFetch
from repro.runtime.message import Message
from repro.runtime.pe import PE

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.runtime import CharmRuntime

__all__ = ["converse_scheduler"]


def converse_scheduler(runtime: "CharmRuntime", pe: PE) -> _t.Generator:
    """The scheduler loop bound to one PE (one simulated process).

    Entry methods run inline: a plain one makes no generator frame.  The
    loop never returns: it stays parked on its run queue until
    ``Environment.close()`` ends the run.
    """
    env = runtime.env
    get = pe.run_queue.get
    pe_id = pe.id
    pe.started_at = env.now
    while True:
        item = yield get()
        if type(item) is Message:
            interceptor = runtime.interceptor
            if (interceptor is not None and not item.intercepted
                    and interceptor.wants(item)):
                item.intercepted = True
                started = env._now
                yield from interceptor.intercept(pe, item)
                pe.note_overhead(env._now - started)
                continue
            message, task = item, None
        elif isinstance(item, ReadyTask):
            message, task = item.message, item.task
        elif isinstance(item, RetryFetch):
            if runtime.interceptor is not None:
                started = env._now
                yield from runtime.interceptor.retry(pe)
                pe.note_overhead(env._now - started)
            continue
        else:
            raise EntryMethodError(
                f"pe{pe_id}: unexpected run-queue item {item!r}")

        # -- deliver: execute one entry method on this PE
        chare = message.target
        spec = message.entry
        started = env._now
        if _probe.on_deliver is not None:
            _probe.on_deliver(pe, message, task)
        if _probe.on_execute_begin is not None:
            # begin is published before the entry runs so messages sent from
            # inside it can parent on this span (causal send -> execute edges)
            _probe.on_execute_begin(pe_id, message, task, started)
        result = spec.func(chare, *message.args, **message.kwargs)
        if type(result) is _GeneratorType:
            # a generator entry, or a plain one that returned a generator
            yield from result
        now = env._now
        elapsed = now - started
        pe.busy_time += elapsed
        pe.tasks_executed += 1
        if _probe.on_execute_end is not None:
            _probe.on_execute_end(pe_id, message, task, started, now,
                                  f"{chare.label}.{spec.name}")

        if task is not None and runtime.interceptor is not None:
            post_started = env._now
            yield from runtime.interceptor.post_process(pe, task)
            pe.note_overhead(env._now - post_started)
