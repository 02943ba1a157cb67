"""OOCTask: an intercepted ``[prefetch]`` entry-method invocation.

"The object along with its input dependences... and input message are
encapsulated as an OOCTask." (§IV-B)
"""

from __future__ import annotations

import enum
import typing as _t

from repro.errors import SchedulingError
from repro.mem.block import AccessIntent, BlockState, DataBlock
from repro.runtime.message import Message

__all__ = ["TaskState", "OOCTask"]


class TaskState(enum.Enum):
    """Lifecycle of an intercepted prefetch task."""

    WAITING = "waiting"      # in a wait queue, data not yet resident
    FETCHING = "fetching"    # an IO thread / worker is bringing data in
    READY = "ready"          # all dependences INHBM; queued for execution
    RUNNING = "running"
    DONE = "done"


class OOCTask:
    """A prefetch task: message + resolved, deduplicated dependences.

    ``missing`` is the summed ``nbytes`` of the dependences in ``INDDR``
    (neither in nor moving to HBM): what a fetch of this task must still
    bring in.  It is computed once here and then kept current by the
    blocks' ``begin_move``/``settle`` transitions, which reach the task
    through its demand registration (``DataBlock.add_demand``).  It is
    therefore valid only while the task is registered as demand — from
    ``OOCManager.intercept`` until ``OOCManager.post_process`` — and goes
    stale afterwards.
    """

    __slots__ = ("tid", "message", "pe_id", "deps", "blocks", "missing",
                 "state", "retained")

    def __init__(self, tid: int, message: Message, pe_id: int,
                 deps: _t.Sequence[tuple[DataBlock, AccessIntent]]):
        self.tid = tid
        self.message = message
        self.pe_id = pe_id
        # Deduplicate blocks (a block listed twice keeps the strongest
        # intent; refcounts must bump once per task, not per mention).
        merged: dict[int, tuple[DataBlock, AccessIntent]] = {}
        for block, intent in deps:
            if block.bid in merged:
                prev = merged[block.bid][1]
                if prev is not intent:
                    intent = AccessIntent.READWRITE
            merged[block.bid] = (block, intent)
        self.deps: tuple[tuple[DataBlock, AccessIntent], ...] = tuple(
            merged[k] for k in sorted(merged))
        self.blocks: tuple[DataBlock, ...] = tuple(
            block for block, _ in self.deps)
        self.missing = sum(block.nbytes for block in self.blocks
                           if block.state is BlockState.INDDR)
        self.state = TaskState.WAITING
        #: True once refcounts were taken (so release is exactly-once)
        self.retained = False

    # -- dependence views -----------------------------------------------------

    @property
    def chare(self) -> _t.Any:
        return self.message.target

    @property
    def total_dep_bytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    def all_resident(self) -> bool:
        return all(b.state is BlockState.INHBM for b in self.blocks)

    # -- refcount lifecycle (paper: bump at scheduling, drop at finish) ---------

    def retain_all(self, now: float) -> None:
        if self.retained:
            raise SchedulingError(f"task #{self.tid} retained twice")
        for block in self.blocks:
            block.retain(now)
        self.retained = True

    def release_all(self) -> None:
        if not self.retained:
            raise SchedulingError(
                f"task #{self.tid} released without being retained")
        for block in self.blocks:
            block.release()
        self.retained = False

    def __repr__(self) -> str:
        tgt = getattr(self.message.target, "label", "?")
        return (f"<OOCTask #{self.tid} {tgt}.{self.message.entry.name} "
                f"pe={self.pe_id} {self.state.value} deps={len(self.deps)}>")
