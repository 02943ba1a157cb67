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


#: each category's position among the :class:`PETimeline` fields after
#: ``window`` (``execute`` .. ``scheduling``)
_CATEGORY_INDEX = {category: i for i, category in enumerate((
    TraceCategory.EXECUTE, TraceCategory.PREPROCESS_FETCH,
    TraceCategory.POSTPROCESS_EVICT, TraceCategory.IO_FETCH,
    TraceCategory.IO_EVICT, TraceCategory.LOCK_WAIT,
    TraceCategory.SCHEDULING))}
_EXECUTE = TraceCategory.EXECUTE
_SCHEDULING = TraceCategory.SCHEDULING


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


def build_report(tracer: Tracer) -> ProjectionsReport:
    """Aggregate a tracer's events over ``[0, last event end]`` into a
    report."""
    log = tracer.log
    window = max(log.end, default=0.0)
    # per lane, one running sum per category in field order; each adds
    # its durations in log order, as the timeline fields would
    sums: dict[str, list[float]] = {}
    for lane, category, start, end in zip(log.lane, log.category, log.start,
                                          log.end):
        if end <= start:
            continue
        acc = sums.get(lane)
        if acc is None:
            acc = sums[lane] = [0.0] * len(_CATEGORY_INDEX)
        # the two common categories skip the enum's Python-level hash
        if category is _EXECUTE:
            acc[0] += end - start
        elif category is _SCHEDULING:
            acc[6] += end - start
        else:
            acc[_CATEGORY_INDEX[category]] += end - start
    lanes = {lane: PETimeline(lane, window, *acc)
             for lane, acc in sums.items()}
    return ProjectionsReport(window=window, lanes=lanes)
