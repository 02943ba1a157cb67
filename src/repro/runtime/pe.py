"""Processing Entities: one worker scheduler per physical core.

Each PE owns the paper's two queue types (§IV-B):

* the **run queue** — "tasks that are ready to be scheduled by the Converse
  scheduler... picked up in FIFO order";
* the **wait queue** — "tasks that need data to be prefetched", one per PE
  so "the IO thread can serve same number of requests for each wait queue
  at a time, thereby serving all PEs equally".

The run queue doubles as the converse message queue: plain messages and
ready OOC tasks are both delivered through it, which is exactly how the
paper's interception layers over Converse.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro import hooks as _probe
from repro.machine.cpu import Core
from repro.sim.environment import Environment
from repro.sim.resources import Store
from repro.sim.sync import Lock

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.process import Process

__all__ = ["PE"]


class PE:
    """One worker processing entity bound to a physical core."""

    def __init__(self, env: Environment, pe_id: int, core: Core):
        self.env = env
        self.id = pe_id
        self.core = core
        #: converse queue: messages + ready OOC tasks, FIFO
        self.run_queue = Store(env, name=f"pe{pe_id}.runq")
        #: tasks parked until their data is prefetched
        self.wait_queue: deque = deque()
        #: protects the wait queue (cooperative, but contention is traced)
        self.wait_lock = Lock(env, name=f"pe{pe_id}.waitlock")
        self.scheduler_process: "Process | None" = None
        # -- accounting -------------------------------------------------------
        self.busy_time = 0.0          # executing entry methods
        self.overhead_time = 0.0      # pre/post-processing on this PE
        self.tasks_executed = 0
        self.messages_delivered = 0
        self.started_at: float | None = None
        self.stopped_at: float | None = None

    # -- wait queue helpers (FIFO, as the paper specifies) ---------------------

    def wait_enqueue(self, task: _t.Any) -> None:
        if _probe.on_handoff_put is not None:
            _probe.on_handoff_put(task)
        self.wait_queue.append(task)

    def wait_requeue_front(self, task: _t.Any) -> None:
        """Put a task back at the head (IO thread could not fetch it yet)."""
        if _probe.on_handoff_put is not None:
            _probe.on_handoff_put(task)
        self.wait_queue.appendleft(task)

    def wait_dequeue(self) -> _t.Any | None:
        if self.wait_queue:
            task = self.wait_queue.popleft()
            if _probe.on_handoff_get is not None:
                _probe.on_handoff_get(task)
            return task
        return None

    @property
    def wait_depth(self) -> int:
        return len(self.wait_queue)

    # -- accounting -------------------------------------------------------------

    def note_busy(self, seconds: float) -> None:
        self.busy_time += seconds

    def note_overhead(self, seconds: float) -> None:
        self.overhead_time += seconds

    @property
    def wall_time(self) -> float:
        """Scheduler lifetime (start to stop, or to 'now' while running)."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self.env.now
        return end - self.started_at

    @property
    def idle_time(self) -> float:
        """Wall time not spent executing or in pre/post-processing."""
        return max(0.0, self.wall_time - self.busy_time - self.overhead_time)

    def __repr__(self) -> str:
        return (f"<PE {self.id} core={self.core.core_id} "
                f"runq={len(self.run_queue)} waitq={len(self.wait_queue)}>")
