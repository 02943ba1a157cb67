"""Critical-path profiling over a finished run's span DAG.

:func:`critical_path` walks backward from the last-ending span,
attributing every instant of the makespan to exactly one span (or to a
*scheduling gap* when nothing on the path covers it).  At each step the
predecessor is whichever candidate — a causal parent or the previous
span on the current lane — covers the latest instant before the current
frontier; ties resolve deterministically by (coverage, start, lane,
sid), so the same run always yields the same path.

The decomposition is **conservative by construction**: the per-bucket
contributions telescope to exactly ``end - start`` (the quantitative
replacement for eyeballing the "red portion" of the paper's Figures
5–6).  Buckets::

    compute     EXECUTE                       (entry-method kernels)
    fetch       IO_FETCH, PREPROCESS_FETCH    (DDR -> HBM moves)
    evict       IO_EVICT, POSTPROCESS_EVICT   (HBM -> DDR moves)
    lock_wait   LOCK_WAIT
    scheduling  SCHEDULING (queue-lock charges) plus every gap the walk
                cannot attribute to a span — run-queue delays, idle waits

A *chain* is a maximal gap-free stretch of the path: consecutive spans
each enabled by the one before it.  The top-K longest chains name the
entry methods and blocks on the path — the first places to attack when
a strategy underperforms.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing as _t
from operator import attrgetter

from repro.trace.events import TraceCategory
from repro.units import format_time

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.spans import Span

__all__ = ["BUCKETS", "PathStep", "Chain", "CritPathReport",
           "critical_path"]

#: decomposition buckets, in render order
BUCKETS = ("compute", "fetch", "evict", "lock_wait", "scheduling")

_BUCKET_OF = {
    TraceCategory.EXECUTE: "compute",
    TraceCategory.IO_FETCH: "fetch",
    TraceCategory.PREPROCESS_FETCH: "fetch",
    TraceCategory.IO_EVICT: "evict",
    TraceCategory.POSTPROCESS_EVICT: "evict",
    TraceCategory.LOCK_WAIT: "lock_wait",
    TraceCategory.SCHEDULING: "scheduling",
}


@dataclasses.dataclass(slots=True)
class PathStep:
    """One attributed stretch of the critical path (``span=None``: gap)."""

    span: "Span | None"
    lane: str
    bucket: str
    begin: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def label(self) -> str:
        if self.span is None:
            return "(wait)"
        return self.span.label or self.span.category.value


@dataclasses.dataclass(slots=True)
class Chain:
    """A maximal gap-free causal stretch of the path, earliest first."""

    steps: list[PathStep]

    @property
    def duration(self) -> float:
        return sum(step.duration for step in self.steps)

    def render(self) -> str:
        labels = [step.label for step in self.steps]
        shown = labels[:6]
        tail = f" … (+{len(labels) - 6} more)" if len(labels) > 6 else ""
        lanes = sorted({step.lane for step in self.steps})
        return (f"{format_time(self.duration)} on {','.join(lanes)}: "
                + " -> ".join(shown) + tail)


@dataclasses.dataclass
class CritPathReport:
    """Makespan decomposition along one critical path."""

    start: float
    end: float
    #: bucket -> attributed seconds; sums to ``end - start``
    contributions: dict[str, float]
    #: lane -> bucket -> attributed seconds (gaps charge the waiting lane)
    by_lane: dict[str, dict[str, float]]
    #: the full path, earliest step first
    steps: list[PathStep]
    #: gap-free stretches, longest first
    chains: list[Chain]

    @property
    def makespan(self) -> float:
        return self.end - self.start

    def share(self, bucket: str) -> float:
        return self.contributions.get(bucket, 0.0) / self.makespan \
            if self.makespan > 0 else 0.0

    def render(self, *, title: str = "") -> str:
        head = f"== critical path{': ' + title if title else ''} =="
        lines = [head,
                 f"   makespan {format_time(self.makespan)} "
                 f"({len(self.steps)} step(s) on the path)"]
        for bucket in BUCKETS:
            value = self.contributions.get(bucket, 0.0)
            lines.append(f"   {bucket.replace('_', '-'):10s} "
                         f"{format_time(value):>12s}  {self.share(bucket):6.1%}")
        if self.by_lane:
            lines.append("-- per-lane contributions "
                         "(fetch = ddr->hbm, evict = hbm->ddr) --")
            for lane in sorted(self.by_lane):
                row = self.by_lane[lane]
                cells = "  ".join(
                    f"{bucket.replace('_', '-')}={format_time(row[bucket])}"
                    for bucket in BUCKETS if row.get(bucket, 0.0) > 0)
                lines.append(f"   {lane:6s} {cells}")
        shown = self.chains[:5]
        if shown:
            lines.append(f"-- top {len(shown)} longest chains --")
            for i, chain in enumerate(shown, 1):
                lines.append(f"   {i}. {chain.render()}")
        return "\n".join(lines)


_START = attrgetter("start")
_END = attrgetter("end")
_START_END_SID = attrgetter("start", "end", "sid")
_START_LANE_SID = attrgetter("start", "lane", "sid")
_END_START_LANE_SID = attrgetter("end", "start", "lane", "sid")


def _empty_report(start: float, end: float) -> CritPathReport:
    return CritPathReport(start, end,
                          {bucket: 0.0 for bucket in BUCKETS}, {}, [], [])


def critical_path(spans: "_t.Sequence[Span]", *,
                  start: float | None = None,
                  end: float | None = None) -> CritPathReport:
    """Walk the span DAG backward and decompose ``[start, end]``.

    Defaults to the envelope of the recorded spans; pass an explicit
    window to profile one phase (e.g. from the app's measured run start).
    """
    if not spans:
        return _empty_report(start or 0.0, end or 0.0)
    t_end = max(map(_END, spans)) if end is None else end
    t_start = min(map(_START, spans)) if start is None else start
    if t_end <= t_start:
        return _empty_report(t_start, t_end)

    by_sid = {span.sid: span for span in spans}
    lane_spans: dict[str, list[Span]] = {}
    for span in sorted(spans, key=_START_END_SID):
        lane_spans.setdefault(span.lane, []).append(span)
    lane_starts = {lane: [s.start for s in row]
                   for lane, row in lane_spans.items()}

    def lane_prev(lane: str, t: float, exclude: "Span") -> "Span | None":
        """Latest span on ``lane`` starting before ``t`` (not ``exclude``)."""
        row = lane_spans.get(lane)
        if not row:
            return None
        i = bisect.bisect_left(lane_starts[lane], t)
        while i > 0:
            i -= 1
            if row[i] is not exclude:
                return row[i]
        return None

    def coverage_key(span: "Span", t: float) -> tuple:
        return (min(span.end, t), span.start, span.lane, span.sid)

    candidates = [s for s in spans if s.start < t_end]
    if not candidates:
        report = _empty_report(t_start, t_end)
        report.contributions["scheduling"] = t_end - t_start
        return report
    # the head maximizes coverage_key(s, t_end) with C-level keys: a span
    # reaching t_end covers it fully, so those outrank every other
    # candidate and tie on (start, lane, sid)
    covering = [s for s in candidates if s.end >= t_end]
    cur: "Span | None" = (max(covering, key=_START_LANE_SID) if covering
                          else max(candidates, key=_END_START_LANE_SID))

    contributions = {bucket: 0.0 for bucket in BUCKETS}
    by_lane: dict[str, dict[str, float]] = {}
    steps: list[PathStep] = []

    def charge(lane: str, bucket: str, begin: float, stop: float,
               span: "Span | None") -> None:
        contributions[bucket] += stop - begin
        row = by_lane.setdefault(lane, dict.fromkeys(BUCKETS, 0.0))
        row[bucket] += stop - begin
        steps.append(PathStep(span, lane, bucket, begin, stop))

    t = t_end
    head_cover = min(cur.end, t_end)
    if head_cover < t_end:    # explicit end beyond the last span
        charge(cur.lane, "scheduling", head_cover, t_end, None)
        t = head_cover
    while cur is not None and t > t_start:
        top = min(cur.end, t)
        bottom = max(cur.start, t_start)
        if top > bottom:
            charge(cur.lane, _BUCKET_OF[cur.category], bottom, top, cur)
            t = bottom
        if t <= t_start:
            break
        cands: list[Span] = []
        for cause in cur.causes:
            parent = by_sid.get(cause)
            if parent is not None and parent.start < t:
                cands.append(parent)
        prev = lane_prev(cur.lane, t, cur)
        if prev is not None:
            cands.append(prev)
        if not cands:
            charge(cur.lane, "scheduling", t_start, t, None)
            t = t_start
            break
        nxt = max(cands, key=lambda s: coverage_key(s, t))
        cover = min(nxt.end, t)
        if cover < t:
            charge(cur.lane, "scheduling", cover, t, None)
            t = cover
        cur = nxt

    steps.reverse()
    chains: list[Chain] = []
    run: list[PathStep] = []
    for step in steps:
        if step.span is None:
            if run:
                chains.append(Chain(run))
            run = []
        else:
            run.append(step)
    if run:
        chains.append(Chain(run))
    chains.sort(key=lambda c: (-c.duration,
                               c.steps[0].begin if c.steps else 0.0))
    return CritPathReport(t_start, t_end, contributions, by_lane,
                          steps, chains)
