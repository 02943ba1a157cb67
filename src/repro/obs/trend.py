"""BENCH trend dashboard: history append + sparkline page.

Every PR leaves ``BENCH_<name>.json`` records at the repository root
(see :mod:`repro.bench.regression`); each file is a snapshot that the
next commit overwrites.  ``repro trend append`` folds the current
snapshots into one ``bench_history.jsonl`` line keyed by commit, and
``repro trend render`` turns the accumulated lines into a standalone
HTML page of sparklines — the perf trajectory ROADMAP asks every PR to
leave behind, readable without checking out old commits.

History lines are append-only JSON objects::

    {"commit": "<sha>", "created": "<max created of the BENCH files>",
     "benches": {"simcore": {...BENCH_simcore.json...}, ...}}

``created`` is derived from the BENCH files, never from the runtime
clock, so appending and rendering are deterministic given the inputs
(and re-appending the same commit is a no-op — CI re-runs stay
idempotent).
"""

from __future__ import annotations

import json
import typing as _t
from pathlib import Path

from repro.bench.regression import repo_root
from repro.obs import html as _h

__all__ = ["DEFAULT_TREND_METRICS", "collect_bench_files", "append_history",
           "load_history", "render_trend_html"]

#: dotted paths (bench.scenario.metric) plotted by default, with labels
DEFAULT_TREND_METRICS: tuple[tuple[str, str], ...] = (
    ("simcore.event_churn.ops_per_s", "sim-core event churn (ops/s)"),
    ("simcore.contention_64pe.wall_s", "64-PE contention fluid wall (s)"),
    ("simcore.steady_phases.wall_s", "steady-phase memo replay wall (s)"),
    ("leaderboard.tiny_sweep.cells_per_s",
     "leaderboard sweep throughput (cells/s)"),
    ("exec.fig2_tiny_sweep.warm_cache_x", "exec warm-cache speedup (x)"),
    ("probe.stencil_1gib_multi_io.disabled_x",
     "dormant probe overhead (x)"),
    ("probe.stencil_1gib_multi_io.metrics_x",
     "metrics session enabled overhead (x)"),
    ("probe.stencil_1gib_multi_io.racesan_x",
     "racesan enabled overhead (x)"),
    ("probe.stencil_1gib_multi_io.spans_x",
     "span tracer enabled overhead (x)"),
    ("lint.full_tree.files_per_s", "bwlint throughput (files/s)"),
    ("e2e.fig8-stencil.wall_s", "e2e fig8-stencil wall (s)"),
    ("e2e.fig9-matmul.wall_s", "e2e fig9-matmul wall (s)"),
    ("e2e.fits-hbm-replicated.wall_s", "e2e fits-hbm-replicated wall (s)"),
    ("e2e.observed-stencil.wall_s", "e2e observed-stencil wall (s)"),
)


def history_path() -> Path:
    return repo_root() / "bench_history.jsonl"


def collect_bench_files() -> dict[str, dict]:
    """Load every ``BENCH_*.json`` at the repo root, keyed by bench name.

    ``BENCH_e2e.json`` is ``benchmarks/e2e/run.py --json`` output, not a
    regression record: each workload's per-metric ``median`` folds into
    ``metrics[workload][metric]``.
    """
    benches: dict[str, dict] = {}
    for path in sorted(repo_root().glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if path.name == "BENCH_e2e.json" and isinstance(data, dict):
            data = _fold_e2e(data)
        if isinstance(data, dict) and "metrics" in data:
            benches[data.get("bench", path.stem[len("BENCH_"):])] = data
    return benches


def _fold_e2e(run: dict) -> dict | None:
    workloads = run.get("workloads")
    if not isinstance(workloads, dict):
        return None
    metrics = {
        workload: {metric: summary["median"]
                   for metric, summary in per_metric.items()
                   if isinstance(summary, dict) and "median" in summary}
        for workload, per_metric in workloads.items()
        if isinstance(per_metric, dict)}
    return {"bench": "e2e", "python": run.get("python"),
            "correct": run.get("correct"), "metrics": metrics}


def load_history(path: "Path | None" = None) -> list[dict]:
    """Parse history lines, oldest first; tolerates a trailing junk line."""
    target = path if path is not None else history_path()
    records: list[dict] = []
    try:
        text = target.read_text()
    except OSError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "benches" in record:
            records.append(record)
    return records


def append_history(commit: str, *, path: "Path | None" = None) -> dict | None:
    """Append one history record for ``commit`` from the current BENCH files.

    Returns the record written, or None when the commit is already
    recorded (idempotent re-runs) or no BENCH files exist.
    """
    benches = collect_bench_files()
    if not benches:
        return None
    target = path if path is not None else history_path()
    if any(record.get("commit") == commit
           for record in load_history(target)):
        return None
    created = max((bench.get("created", "") for bench in benches.values()),
                  default="")
    record = {"commit": commit, "created": created, "benches": benches}
    with target.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def _lookup(record: _t.Mapping, dotted: str) -> float | None:
    bench, scenario, metric = dotted.split(".", 2)
    try:
        value = record["benches"][bench]["metrics"][scenario][metric]
    except (KeyError, TypeError):
        return None
    return float(value) if isinstance(value, (int, float)) else None


def render_trend_html(records: _t.Sequence[_t.Mapping]) -> str:
    """Sparkline-per-metric page over the history records (oldest first)."""
    rows = []
    for dotted, label in DEFAULT_TREND_METRICS:
        points = [(record.get("commit", "?"), _lookup(record, dotted))
                  for record in records]
        known = [(commit, value) for commit, value in points
                 if value is not None]
        if not known:
            continue
        values = [value for _commit, value in known]
        first, last = values[0], values[-1]
        delta = (last / first - 1.0) * 100 if first else 0.0
        arrow = "▲" if delta > 0.5 else ("▼" if delta < -0.5 else "—")
        rows.append(
            "<tr>"
            f'<td class="x">{_h.esc(label)}<br>'
            f'<span class="note">{_h.esc(dotted)}</span></td>'
            f"<td>{_h.sparkline(values)}</td>"
            f"<td>{_h.esc(_h.fmt(last))}</td>"
            f"<td>{_h.esc(arrow)} {delta:+.1f}%</td>"
            f"<td>{len(known)}</td>"
            f'<td class="x"><span class="note">'
            f"{_h.esc(known[-1][0][:12])}</span></td>"
            "</tr>")
    if rows:
        body = ('<table><tr><th class="x">metric</th><th>trajectory</th>'
                "<th>latest</th><th>vs first</th><th>points</th>"
                '<th class="x">last commit</th></tr>'
                + "".join(rows) + "</table>")
    else:
        body = "<p>No bench history yet.</p>"
    subtitle = (f"{len(records)} recorded commit(s); wall-clock metrics are "
                "machine-dependent — read the ratios, not the absolutes")
    return _h.page("repro bench trend", body, subtitle=subtitle)
