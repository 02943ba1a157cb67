"""Self-contained HTML rendering for the report/trend pages.

Everything is inline — one ``<style>`` block, inline SVG charts, no
external assets, no scripts — so a sweep report is a single file that
opens anywhere and diffs cleanly.  Nothing here reads the clock: pages
are a pure function of their inputs, which is what makes warm-cache
re-runs byte-identical (the determinism contract ``repro report``
inherits from the exec cache).
"""

from __future__ import annotations

import html as _html
import typing as _t

__all__ = ["PALETTE", "page", "fmt", "bar_chart", "sparkline"]

#: colorblind-safe categorical palette (Tableau 10)
PALETTE = ("#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
           "#edc949", "#b07aa1", "#9c755f", "#bab0ab", "#ff9da7")

_STYLE = """
body { font: 14px/1.45 system-ui, sans-serif; color: #1a1a2e;
       margin: 2rem auto; max-width: 60rem; padding: 0 1rem; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #4e79a7; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
p.sub { color: #555; }
table { border-collapse: collapse; margin: 0.8rem 0; }
th, td { border: 1px solid #ccd; padding: 0.25rem 0.6rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #eef1f6; }
td.x, th.x { text-align: left; }
span.sig { color: #b00020; font-weight: bold; }
svg { display: block; margin: 0.5rem 0; }
.note { color: #666; font-size: 0.85rem; }
"""


def esc(text: _t.Any) -> str:
    return _html.escape(str(text), quote=True)


def fmt(value: float) -> str:
    """Deterministic compact number format for tables and axis labels."""
    if value != value:
        return "nan"
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4g}"


def page(title: str, body: str, *, subtitle: str = "") -> str:
    """Wrap ``body`` in the standalone page skeleton."""
    sub = f'<p class="sub">{esc(subtitle)}</p>' if subtitle else ""
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{esc(title)}</title><style>{_STYLE}</style></head>"
            f"<body>\n<h1>{esc(title)}</h1>{sub}\n{body}\n</body></html>\n")


def _ticks(top: float) -> list[float]:
    return [top * i / 4 for i in range(5)]


def bar_chart(xs: _t.Sequence[str], labels: _t.Sequence[str],
              value_of: _t.Callable[[str, str], tuple[float, float] | None],
              *, unit: str = "") -> str:
    """Grouped bar chart with CI whiskers as inline SVG.

    ``value_of(x, label)`` returns ``(mean, ci_half_width)`` or None for
    a missing cell.
    """
    bar_w, gap, left, top_m, plot_h, bottom = 22, 14, 56, 12, 170, 42
    group_w = bar_w * len(labels) + gap
    width = left + group_w * len(xs) + 16
    height = top_m + plot_h + bottom
    top = 0.0
    for x in xs:
        for label in labels:
            cell = value_of(x, label)
            if cell is not None:
                top = max(top, cell[0] + cell[1])
    if top <= 0:
        top = 1.0
    top *= 1.05

    def y_of(v: float) -> float:
        return top_m + plot_h * (1.0 - v / top)

    parts = [f'<svg width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}" '
             'xmlns="http://www.w3.org/2000/svg" role="img">']
    for tick in _ticks(top):
        y = y_of(tick)
        parts.append(f'<line x1="{left}" y1="{y:.2f}" x2="{width - 8}" '
                     f'y2="{y:.2f}" stroke="#dde" stroke-width="1"/>')
        parts.append(f'<text x="{left - 6}" y="{y + 4:.2f}" '
                     'text-anchor="end" font-size="10" fill="#555">'
                     f'{esc(fmt(tick))}</text>')
    for gi, x in enumerate(xs):
        gx = left + gi * group_w
        for si, label in enumerate(labels):
            cell = value_of(x, label)
            if cell is None:
                continue
            mean, ci = cell
            bx = gx + si * bar_w
            by = y_of(mean)
            color = PALETTE[si % len(PALETTE)]
            parts.append(
                f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w - 3}" '
                f'height="{top_m + plot_h - by:.2f}" fill="{color}">'
                f'<title>{esc(label)} @ {esc(x)}: {esc(fmt(mean))}'
                f'{" ± " + fmt(ci) if ci else ""} {esc(unit)}</title></rect>')
            if ci > 0:
                cx = bx + (bar_w - 3) / 2
                y_lo, y_hi = y_of(max(mean - ci, 0.0)), y_of(mean + ci)
                parts.append(f'<line x1="{cx:.2f}" y1="{y_lo:.2f}" '
                             f'x2="{cx:.2f}" y2="{y_hi:.2f}" '
                             'stroke="#222" stroke-width="1.4"/>')
                for yy in (y_lo, y_hi):
                    parts.append(f'<line x1="{cx - 4:.2f}" y1="{yy:.2f}" '
                                 f'x2="{cx + 4:.2f}" y2="{yy:.2f}" '
                                 'stroke="#222" stroke-width="1.4"/>')
        parts.append(f'<text x="{gx + (group_w - gap) / 2:.2f}" '
                     f'y="{top_m + plot_h + 14}" text-anchor="middle" '
                     f'font-size="10" fill="#333">{esc(x)}</text>')
    legend_y = top_m + plot_h + 30
    lx = left
    for si, label in enumerate(labels):
        color = PALETTE[si % len(PALETTE)]
        parts.append(f'<rect x="{lx}" y="{legend_y - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="{legend_y}" font-size="10" '
                     f'fill="#333">{esc(label)}</text>')
        lx += 14 + 7 * len(label) + 16
    baseline_y = top_m + plot_h
    parts.append(f'<line x1="{left}" y1="{baseline_y}" x2="{width - 8}" '
                 f'y2="{baseline_y}" stroke="#333" stroke-width="1"/>')
    parts.append("</svg>")
    return "".join(parts)


def sparkline(values: _t.Sequence[float]) -> str:
    """One inline-SVG sparkline; dots mark first/last points."""
    width, height = 220, 36
    if not values:
        return "<svg width=\"1\" height=\"1\"></svg>"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    pad = 4
    n = len(values)

    def pt(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        return x, y

    points = " ".join(f"{x:.2f},{y:.2f}"
                      for x, y in (pt(i, v) for i, v in enumerate(values)))
    x0, y0 = pt(0, values[0])
    x1, y1 = pt(n - 1, values[-1])
    return (f'<svg width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" '
            'xmlns="http://www.w3.org/2000/svg">'
            f'<polyline points="{points}" fill="none" stroke="#4e79a7" '
            'stroke-width="1.6"/>'
            f'<circle cx="{x0:.2f}" cy="{y0:.2f}" r="2" fill="#bbb"/>'
            f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="2.4" fill="#e15759"/>'
            "</svg>")
