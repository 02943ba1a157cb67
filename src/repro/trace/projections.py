"""Timeline aggregation: the numbers behind Projections screenshots.

Figures 5 and 6 of the paper are Projections timelines whose message is
quantitative: the *wait* (red) fraction is much larger with a single IO
thread than with per-PE IO threads, and the synchronous strategy inserts
~20 ms of pre-processing before each compute kernel that the asynchronous
strategy hides.  :func:`build_report` computes exactly those quantities.
"""

from __future__ import annotations

import dataclasses
import statistics
import typing as _t

from repro.trace.events import TraceCategory
from repro.trace.tracer import Tracer

__all__ = ["PETimeline", "ProjectionsReport", "build_report"]


@dataclasses.dataclass
class PETimeline:
    """Aggregated interval times for one lane over a window."""

    lane: str
    window: float
    execute: float = 0.0
    preprocess_fetch: float = 0.0
    postprocess_evict: float = 0.0
    io_fetch: float = 0.0
    io_evict: float = 0.0
    lock_wait: float = 0.0
    scheduling: float = 0.0

    @property
    def overhead(self) -> float:
        """Synchronous fetch/evict + lock + scheduling time on this lane."""
        return (self.preprocess_fetch + self.postprocess_evict
                + self.lock_wait + self.scheduling)

    @property
    def idle(self) -> float:
        """The Projections 'red': window time not doing anything useful."""
        return max(0.0, self.window - self.execute - self.overhead
                   - self.io_fetch - self.io_evict)

    @property
    def utilization(self) -> float:
        return self.execute / self.window if self.window > 0 else 0.0

    @property
    def wait_fraction(self) -> float:
        """idle + overhead as a fraction of the window (the 'red portion')."""
        if self.window <= 0:
            return 0.0
        return (self.idle + self.overhead) / self.window


_CATEGORY_FIELDS = {
    TraceCategory.EXECUTE: "execute",
    TraceCategory.PREPROCESS_FETCH: "preprocess_fetch",
    TraceCategory.POSTPROCESS_EVICT: "postprocess_evict",
    TraceCategory.IO_FETCH: "io_fetch",
    TraceCategory.IO_EVICT: "io_evict",
    TraceCategory.LOCK_WAIT: "lock_wait",
    TraceCategory.SCHEDULING: "scheduling",
}


@dataclasses.dataclass
class ProjectionsReport:
    """The whole-run view Figures 5-6 are read from."""

    window: float
    lanes: dict[str, PETimeline]

    @property
    def worker_lanes(self) -> list[PETimeline]:
        return [tl for name, tl in sorted(self.lanes.items())
                if name.startswith("pe")]

    def mean_utilization(self) -> float:
        workers = self.worker_lanes
        if not workers:
            return 0.0
        return statistics.fmean(tl.utilization for tl in workers)

    def mean_wait_fraction(self) -> float:
        """Mean 'red fraction' over worker PEs — the Figure 5 comparator."""
        workers = self.worker_lanes
        if not workers:
            return 0.0
        return statistics.fmean(tl.wait_fraction for tl in workers)

    def mean_preprocess_per_task(self, tasks_per_pe: _t.Mapping[str, int]) -> float:
        """Mean synchronous pre-processing time per task — Figure 6's ~20 ms."""
        totals, counts = 0.0, 0
        for name, tl in self.lanes.items():
            n = tasks_per_pe.get(name, 0)
            if n > 0:
                totals += tl.preprocess_fetch
                counts += n
        return totals / counts if counts else 0.0


def build_report(tracer: Tracer, *, start: float = 0.0,
                 end: float | None = None) -> ProjectionsReport:
    """Aggregate a tracer's events over ``[start, end]`` into a report.

    Events are clipped to the window, so a report over one iteration of an
    application is as valid as a whole-run report.
    """
    if end is None:
        end = max((ev.end for ev in tracer.events), default=start)
    window = max(0.0, end - start)
    lanes: dict[str, PETimeline] = {}
    for ev in tracer.events:
        clipped_start = max(ev.start, start)
        clipped_end = min(ev.end, end)
        if clipped_end <= clipped_start:
            continue
        tl = lanes.setdefault(ev.lane, PETimeline(lane=ev.lane, window=window))
        field = _CATEGORY_FIELDS[ev.category]
        setattr(tl, field, getattr(tl, field) + (clipped_end - clipped_start))
    return ProjectionsReport(window=window, lanes=lanes)
