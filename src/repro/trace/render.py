"""ASCII rendering of timelines — terminal-friendly Projections.

``render_timeline`` draws one character row per lane; each column is a time
bucket coloured by the dominant category in that bucket:

* ``#`` execute, ``f`` sync fetch, ``e`` evict, ``F``/``E`` IO-thread
  fetch/evict, ``l`` lock wait, ``s`` scheduling, ``.`` idle.

``render_usage_bars`` draws per-lane utilisation bars (the summary view).
"""

from __future__ import annotations


from repro.trace.events import TraceCategory
from repro.trace.projections import ProjectionsReport
from repro.trace.tracer import Tracer
from repro.units import format_time

__all__ = ["render_timeline", "render_usage_bars"]

_GLYPHS = {
    TraceCategory.EXECUTE: "#",
    TraceCategory.PREPROCESS_FETCH: "f",
    TraceCategory.POSTPROCESS_EVICT: "e",
    TraceCategory.IO_FETCH: "F",
    TraceCategory.IO_EVICT: "E",
    TraceCategory.LOCK_WAIT: "l",
    TraceCategory.SCHEDULING: "s",
}

IDLE_GLYPH = "."

#: time buckets (characters) per timeline row
TIMELINE_WIDTH = 100


def render_timeline(tracer: Tracer) -> str:
    """Render lane rows over :data:`TIMELINE_WIDTH` time buckets."""
    width = TIMELINE_WIDTH
    start = 0.0
    end = max((ev.end for ev in tracer.events), default=start)
    span = end - start
    lane_names = tracer.lanes()
    if span <= 0 or not lane_names:
        return "(empty timeline)"
    bucket = span / width
    lines = [f"timeline {format_time(start)} .. {format_time(end)} "
             f"({format_time(bucket)}/char)"]
    name_width = max(len(n) for n in lane_names)
    for lane in lane_names:
        # For each bucket pick the category covering the most time in it.
        coverage = [dict() for _ in range(width)]  # type: list[dict]
        for ev in tracer.events_for(lane):
            lo = max(ev.start, start)
            hi = min(ev.end, end)
            if hi <= lo:
                continue
            first = int((lo - start) / bucket)
            last = min(int((hi - start) / bucket), width - 1)
            for b in range(first, last + 1):
                b_lo = start + b * bucket
                b_hi = b_lo + bucket
                overlap = min(hi, b_hi) - max(lo, b_lo)
                if overlap > 0:
                    cov = coverage[b]
                    cov[ev.category] = cov.get(ev.category, 0.0) + overlap
        row = []
        for cov in coverage:
            if not cov:
                row.append(IDLE_GLYPH)
            else:
                top = max(cov, key=lambda c: cov[c])
                row.append(_GLYPHS[top])
        lines.append(f"{lane:<{name_width}} |{''.join(row)}|")
    legend = "  ".join(f"{g}={c.value}" for c, g in _GLYPHS.items())
    lines.append(f"legend: {legend}  {IDLE_GLYPH}=idle")
    return "\n".join(lines)


def render_usage_bars(report: ProjectionsReport, *, width: int = 50) -> str:
    """Per-lane stacked usage bars: ``#`` execute, ``+`` overhead+IO, ``.`` idle."""
    lines = [f"window: {format_time(report.window)}"]
    names = sorted(report.lanes)
    if not names:
        return "(no lanes)"
    name_width = max(len(n) for n in names)
    for name in names:
        tl = report.lanes[name]
        if tl.window <= 0:
            continue
        exec_cols = int(round(width * tl.execute / tl.window))
        over_cols = int(round(width * (tl.overhead + tl.io_fetch + tl.io_evict)
                              / tl.window))
        exec_cols = min(exec_cols, width)
        over_cols = min(over_cols, width - exec_cols)
        idle_cols = width - exec_cols - over_cols
        bar = "#" * exec_cols + "+" * over_cols + "." * idle_cols
        lines.append(f"{name:<{name_width}} |{bar}| "
                     f"util={tl.utilization:5.1%} wait={tl.wait_fraction:5.1%}")
    lines.append("legend: #=execute  +=overhead/io  .=idle")
    return "\n".join(lines)
