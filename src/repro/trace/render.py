"""ASCII rendering of a Projections report — the summary view.

``render_usage_bars`` draws one utilisation bar per lane.
"""

from __future__ import annotations

from repro.trace.projections import ProjectionsReport
from repro.units import format_time

__all__ = ["render_usage_bars"]


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
