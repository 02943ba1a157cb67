"""``repro.obs`` — causal observability over the runtime's probe points.

Four layers, each consuming the one below:

* :mod:`repro.obs.spans` — :class:`SpanTracer` is a causal layer over
  the Projections interval recorder (:class:`repro.trace.Tracer`): each
  execute/fetch/evict/queue-op interval is logged once, and the recorder
  closes a small causal row beside it in the same call; the span DAG is
  joined from the two when read, with each message's source stamped
  where it is created
  (``on_send``, and ``on_reduce`` for driver code between reductions);
  it subscribes to no sim-core point, so the drain loop stays fused;
* :mod:`repro.obs.critpath` — :func:`critical_path` walks a finished
  run's DAG and decomposes the makespan into
  compute/fetch/evict/lock-wait/scheduling, conservatively (the buckets
  telescope to exactly the makespan);
* :mod:`repro.obs.report` — the replicate experiment suite behind
  ``repro report`` (N seeded schedule replicates, mean ± 95% CI, Welch
  tests vs a baseline series, one self-contained HTML file);
* :mod:`repro.obs.trend` — the ``bench_history.jsonl`` append +
  sparkline dashboard behind ``repro trend``.

Hot-path modules import only the probe (:mod:`repro.hooks`); everything
here loads lazily so observability costs one ``is not None`` test per
call site unless a tracer is subscribed.
"""

from __future__ import annotations

import typing as _t

__all__ = [
    "Span", "SpanTracer",
    "BUCKETS", "Chain", "CritPathReport", "PathStep", "critical_path",
    "Sample", "Welch", "summarize", "welch",
    "SweepFigure", "replicate_specs", "assemble_sweep",
    "render_report_html",
    "append_history", "collect_bench_files", "load_history",
    "render_trend_html",
]

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.critpath import (BUCKETS, Chain, CritPathReport,
                                    PathStep, critical_path)
    from repro.obs.report import (SweepFigure, assemble_sweep,
                                  render_report_html, replicate_specs)
    from repro.obs.spans import Span, SpanTracer
    from repro.obs.stats import Sample, Welch, summarize, welch
    from repro.obs.trend import (append_history, collect_bench_files,
                                 load_history, render_trend_html)

#: lazy attribute -> defining submodule (keeps hook-site imports cheap)
_LAZY = {
    "Span": "repro.obs.spans",
    "SpanTracer": "repro.obs.spans",
    "BUCKETS": "repro.obs.critpath",
    "Chain": "repro.obs.critpath",
    "CritPathReport": "repro.obs.critpath",
    "PathStep": "repro.obs.critpath",
    "critical_path": "repro.obs.critpath",
    "Sample": "repro.obs.stats",
    "Welch": "repro.obs.stats",
    "summarize": "repro.obs.stats",
    "welch": "repro.obs.stats",
    "SweepFigure": "repro.obs.report",
    "replicate_specs": "repro.obs.report",
    "assemble_sweep": "repro.obs.report",
    "render_report_html": "repro.obs.report",
    "append_history": "repro.obs.trend",
    "collect_bench_files": "repro.obs.trend",
    "load_history": "repro.obs.trend",
    "render_trend_html": "repro.obs.trend",
}


def __getattr__(name: str) -> _t.Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
