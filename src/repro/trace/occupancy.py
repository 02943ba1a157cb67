"""HBM occupancy timeline: how full the fast tier is over a run.

The paper's IO scheduler "keeps track of the HBM memory in use out of the
total 16GB"; this module renders that ledger over time — the one-line
answer to "was HBM actually full?" when a strategy underperforms.  The
``(time, used)`` log is a subscribed :class:`~repro.trace.Tracer`'s
``occupancy``, one sample per completed move.
"""

from __future__ import annotations

import typing as _t

from repro.units import format_size, format_time

__all__ = ["occupancy_stats", "render_occupancy"]

#: sparkline glyphs, empty -> full
_GLYPHS = " .:-=+*#%@"


def occupancy_stats(log: _t.Sequence[tuple[float, int]],
                    capacity: int) -> dict[str, float]:
    """Peak/mean occupancy fractions from a ``(time, used)`` log.

    The mean is time-weighted over the span of the log.
    """
    if not log:
        return {"peak": 0.0, "mean": 0.0, "samples": 0}
    # every returned statistic is a *fraction of capacity*, including the
    # degenerate single-sample / zero-span cases (regression: a one-entry
    # log must not leak a raw byte count out as the mean)
    peak = max(used for _, used in log) / capacity
    if len(log) == 1:
        mean = log[0][1] / capacity
    else:
        area = 0.0
        for (t0, used), (t1, _next) in zip(log, log[1:]):
            area += used * (t1 - t0)
        span = log[-1][0] - log[0][0]
        mean = (area / span if span > 0 else log[-1][1]) / capacity
    return {"peak": peak, "mean": mean, "samples": len(log)}


def render_occupancy(log: _t.Sequence[tuple[float, int]], capacity: int,
                     *, width: int = 80) -> str:
    """One-line sparkline of HBM usage over the logged window."""
    if not log:
        return "(no occupancy samples)"
    start, end = log[0][0], log[-1][0]
    span = max(end - start, 1e-12)
    buckets: list[int] = [0] * width
    counts: list[int] = [0] * width
    for when, used in log:
        b = min(int((when - start) / span * width), width - 1)
        buckets[b] += used
        counts[b] += 1
    last = 0
    cells = []
    for total, n in zip(buckets, counts):
        if n:
            last = total // n
        level = min(int(last / capacity * (len(_GLYPHS) - 1)),
                    len(_GLYPHS) - 1)
        cells.append(_GLYPHS[level])
    stats = occupancy_stats(log, capacity)
    return (f"hbm |{''.join(cells)}| "
            f"peak={stats['peak']:.0%} mean={stats['mean']:.0%} "
            f"({format_time(start)}..{format_time(end)}, "
            f"cap {format_size(capacity)})")
