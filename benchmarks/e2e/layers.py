"""Fold a cProfile of one round into per-layer self time and call counts.

A layer is a package of ``src/repro`` (see :func:`layer_of` for the
three files that sit elsewhere).  Self time of a function inside
``src/repro`` goes to the layer of its file.  Builtins and the standard
library have no layer of their own: their self time is split over their
callers in proportion to the time each caller spent in them (pstats
caller records), recursively, so every second lands in one of
:data:`LAYERS` and the shares sum to 1.
"""

from __future__ import annotations

import pstats
import typing as _t
from pathlib import Path

LAYERS = ("sim", "fluid", "runtime", "core", "mem", "machine", "apps",
          "observers", "bwlint", "exec")

_OBSERVER_PACKAGES = {"trace", "obs", "metrics", "race"}
#: the parts of lint/ that observe a run (simsan); the rest of lint/ is
#: the bwlint static analyzer, which the guided strategies call at
#: placement time and which would otherwise read as observer cost
_LINT_OBSERVERS = {"hooks.py", "sanitizer.py"}

#: counts taken from profiler call records: (file under src/repro,
#: function name, call-count metric, cumulative-seconds metric)
CALL_COUNTS = (
    ("sim/environment.py", "step", "sim.step_calls", None),
    ("sim/fluid.py", "start_flow", "fluid.flows_started", None),
    ("core/strategies/base.py", "missing_bytes", "core.missing_bytes_calls",
     "core.missing_bytes_cum_s"),
    ("core/eviction.py", "make_space_victims", "core.victim_scans",
     "core.victim_scan_cum_s"),
    ("core/hbm.py", "can_fit", "core.fit_probes", None),
)

Func = tuple[str, int, str]


def layer_of(filename: str, src_root: Path) -> str | None:
    """The layer a source file belongs to, or None outside ``src/repro``."""
    try:
        parts = Path(filename).resolve().relative_to(src_root / "repro").parts
    except ValueError:
        return None
    head = parts[0] if len(parts) > 1 else parts[0].removesuffix(".py")
    if head == "sim":
        return "fluid" if parts[-1] == "fluid.py" else "sim"
    if parts == ("race", "explorer.py"):
        # the seeded tie-breaker the replicated runs install orders the
        # event loop's same-instant batches: event-loop work, not observing
        return "sim"
    if head in _OBSERVER_PACKAGES or head == "hooks":
        return "observers"
    if head == "lint":
        return "observers" if parts[-1] in _LINT_OBSERVERS else "bwlint"
    if head in LAYERS:
        return head
    # bench/, cluster.py, config.py, units.py ...: experiment plumbing
    return "exec"


def split(stats: pstats.Stats, src_root: Path) -> dict[str, _t.Any]:
    """Per-layer self seconds, plus the :data:`CALL_COUNTS` counters."""
    raw: dict[Func, tuple] = stats.stats  # type: ignore[attr-defined]
    weights: dict[Func, dict[str, float]] = {}
    on_stack: set[Func] = set()

    def weight(func: Func) -> dict[str, float]:
        if func in weights:
            return weights[func]
        layer = layer_of(func[0], src_root)
        if layer is not None:
            weights[func] = {layer: 1.0}
            return weights[func]
        on_stack.add(func)
        mix: dict[str, float] = {}
        total = 0.0
        callers = raw[func][4] if func in raw else {}
        for caller, (_cc, _nc, tt, _ct) in callers.items():
            if caller in on_stack:  # recursion among non-repro frames
                continue
            for name, share in weight(caller).items():
                mix[name] = mix.get(name, 0.0) + tt * share
            total += tt
        on_stack.discard(func)
        # no caller records (profile roots, the benchmark's own frames):
        # the harness layer
        weights[func] = ({k: v / total for k, v in mix.items()} if total > 0
                         else {"exec": 1.0})
        return weights[func]

    self_s = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        for name, share in weight(func).items():
            self_s[name] += tt * share

    counts: dict[str, float] = {}
    for suffix, fname, calls_metric, cum_metric in CALL_COUNTS:
        calls = cum = 0.0
        for (filename, _line, name), (_cc, nc, _tt, ct, _c) in raw.items():
            if name == fname and filename.endswith(suffix):
                calls += nc
                cum += ct
        counts[calls_metric] = calls
        if cum_metric is not None:
            counts[cum_metric] = cum
    return {"self_s": self_s, "calls": counts}
