"""Typed trace records."""

from __future__ import annotations

import enum
import typing as _t

__all__ = ["TraceCategory", "TraceEvent"]


class TraceCategory(enum.Enum):
    """What a PE (or IO thread) was doing during an interval.

    The Projections colour legend of Figures 5-6 maps onto these:
    *compute kernel* bars are ``EXECUTE``; the "red portion... wait time
    caused due to delays from scheduling tasks, data prefetch, eviction and
    locking of queues and data blocks" is PE idle time plus the overhead
    categories.
    """

    #: entry-method execution (the useful work)
    EXECUTE = "execute"
    #: synchronous data fetch in a task's pre-processing step (no-IO strategy)
    PREPROCESS_FETCH = "preprocess_fetch"
    #: synchronous eviction in a task's post-processing step
    POSTPROCESS_EVICT = "postprocess_evict"
    #: an IO thread fetching a block into HBM
    IO_FETCH = "io_fetch"
    #: an IO thread (or worker) evicting a block to DDR
    IO_EVICT = "io_evict"
    #: waiting to acquire a queue or block lock
    LOCK_WAIT = "lock_wait"
    #: converse scheduling bookkeeping
    SCHEDULING = "scheduling"


class _Interval(_t.NamedTuple):
    lane: str            # "pe3" or "io3"
    category: TraceCategory
    start: float
    end: float
    label: str = ""
    nbytes: int | None = None    # the moved block's bytes (fetch, evict)
    reason: str | None = None    # what caused an eviction


class TraceEvent(_Interval):
    """One closed interval on one PE/IO-thread lane.

    An immutable named tuple: a traced run records one per execute,
    fetch, evict and queue operation, and a tuple is the cheapest record
    to build (a frozen dataclass made the traced stencil bench ~10% slower).
    Fetches and evictions also carry what the metrics fold reads.
    """

    __slots__ = ()

    def __new__(cls, lane: str, category: TraceCategory, start: float,
                end: float, label: str = "", nbytes: int | None = None,
                reason: str | None = None) -> "TraceEvent":
        if end < start:
            raise ValueError(
                f"trace event ends before it starts ({start}..{end})")
        return super().__new__(cls, lane, category, start, end, label,
                               nbytes, reason)

    @property
    def duration(self) -> float:
        return self.end - self.start
