"""Exec-engine speedup guard (``BENCH_exec.json``).

Measures the PR's two acceptance ratios on a real figure workload
(the Figure 2 stencil plan at ``Scale.TINY``) and records them in
``BENCH_exec.json``:

* ``warm_cache_x`` — serial uncached wall clock over warm-cache wall
  clock for the same specs.  A warm sweep is pure disk reads, so the
  ISSUE's >= 10x floor holds on any machine; asserted unconditionally.
* ``parallel_x`` — serial over ``-j <cores>`` cold wall clock.  The
  >= 3x floor only exists with cores to spare, so it is asserted when
  the host has >= 4 CPUs; on smaller boxes the measured ratio and the
  core count are still recorded (with a sanity floor: the pool must not
  be catastrophically slower than serial).  When the lane is skipped or
  the floor is not asserted, an explicit ``*_skipped_reason`` field in
  the JSON says why — a single-core host must be distinguishable from a
  lane that silently failed to run.
* ``cache_overhead_x`` — cold *cached* over cold uncached serial runs:
  the price of fingerprinting + atomic writes on a cache-miss sweep.

The equivalence property (identical tables whatever ``--jobs`` is) is
asserted in ``tests/test_exec_engine.py``; this file only guards speed.

The pytest entry records under pytest's ``tmp_path``; run this file as a
script to refresh the tracked snapshot::

    PYTHONPATH=src python benchmarks/bench_exec.py
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from repro.bench.experiments import fig2_plan
from repro.bench.harness import Scale
from repro.bench.regression import write_bench
from repro.exec.cache import ResultCache
from repro.exec.engine import Engine

#: acceptance floors from the ISSUE
WARM_CACHE_BOUND = 10.0
PARALLEL_BOUND = 3.0
#: a cold cached sweep may pay for hashing + writes, but not much more
CACHE_OVERHEAD_BOUND = 1.25
NOISE_EPSILON = 0.05
#: cores needed before the parallel floor is meaningful
PARALLEL_MIN_CORES = 4
REPEATS = 3


def _specs():
    # enough work per spec that pool dispatch overhead cannot dominate,
    # small enough that the bench stays in seconds
    return fig2_plan(Scale.TINY, iterations=3).specs


def _timed(engine: Engine) -> float:
    specs = _specs()
    t0 = time.perf_counter()
    results = engine.run(specs)
    elapsed = time.perf_counter() - t0
    assert all(r.ok for r in results), [r.error for r in results]
    return elapsed


def run_bench(directory: Path | None = None) -> Path:
    """Assert the speedup floors; write BENCH_exec.json.

    ``directory`` defaults to the repository root (the tracked snapshot).
    The cold/warm caches live in a temporary directory either way.
    """
    with tempfile.TemporaryDirectory(prefix="bench-exec-") as scratch:
        return _measure(Path(scratch), directory)


def _measure(cache_root: Path, directory: Path | None) -> Path:
    cores = os.cpu_count() or 1
    jobs = min(cores, len(_specs()))
    fingerprint = "b" * 64

    _timed(Engine(jobs=1))  # warm imports before any timing
    serial, cold_cached, warm, parallel = [], [], [], []
    for rep in range(REPEATS):
        serial.append(_timed(Engine(jobs=1)))
        # fresh generation per repeat => every cached run is a true cold
        cold_root = cache_root / f"cold{rep}"
        cold_cached.append(_timed(Engine(jobs=1, cache=ResultCache(
            root=cold_root, fingerprint=fingerprint))))
        warm.append(_timed(Engine(jobs=1, cache=ResultCache(
            root=cold_root, fingerprint=fingerprint))))
        if cores > 1:
            parallel.append(_timed(Engine(jobs=jobs)))

    serial_s, warm_s = min(serial), min(warm)
    cold_cached_s = min(cold_cached)
    warm_cache_x = serial_s / warm_s
    cache_overhead_x = cold_cached_s / serial_s
    parallel_s = min(parallel) if parallel else None
    parallel_x = serial_s / parallel_s if parallel_s else None

    print(f"\nexec engine: serial {serial_s * 1e3:.1f}ms   "
          f"warm cache {warm_s * 1e3:.1f}ms ({warm_cache_x:.0f}x)   "
          f"cold cached {cold_cached_s * 1e3:.1f}ms "
          f"({cache_overhead_x:.2f}x)   "
          + (f"parallel -j{jobs} {parallel_s * 1e3:.1f}ms "
             f"({parallel_x:.2f}x)" if parallel_s else
             f"parallel: skipped ({cores} core(s))"))

    assert warm_cache_x >= WARM_CACHE_BOUND, (
        f"warm cache only {warm_cache_x:.1f}x over serial "
        f"(wanted >= {WARM_CACHE_BOUND}x)")
    assert cache_overhead_x <= CACHE_OVERHEAD_BOUND + NOISE_EPSILON, (
        f"cold cached sweep {cache_overhead_x:.2f}x serial "
        f"(wanted <= {CACHE_OVERHEAD_BOUND}x)")
    if parallel_x is not None:
        if cores >= PARALLEL_MIN_CORES:
            assert parallel_x >= PARALLEL_BOUND, (
                f"-j{jobs} only {parallel_x:.2f}x over serial on "
                f"{cores} cores (wanted >= {PARALLEL_BOUND}x)")
        else:
            assert parallel_x >= 0.4, (
                f"-j{jobs} catastrophically slower than serial "
                f"({parallel_x:.2f}x)")

    metrics: dict[str, dict[str, float]] = {
        "fig2_tiny_sweep": {
            "cores": float(cores),
            "jobs": float(jobs),
            "serial_s": serial_s,
            "warm_cache_s": warm_s,
            "cold_cached_s": cold_cached_s,
            "warm_cache_x": warm_cache_x,
            "cache_overhead_x": cache_overhead_x,
        },
    }
    if parallel_s is not None:
        metrics["fig2_tiny_sweep"]["parallel_s"] = parallel_s
        metrics["fig2_tiny_sweep"]["parallel_x"] = parallel_x
        if cores < PARALLEL_MIN_CORES:
            # measured, but the >= 3x floor was not asserted
            metrics["fig2_tiny_sweep"]["parallel_floor_skipped_reason"] = (
                f"host has {cores} core(s) < {PARALLEL_MIN_CORES}; "
                "ratio recorded, floor not asserted")
    else:
        # the lane never ran: say so explicitly instead of leaving the
        # keys silently absent (a single-core host is the common cause)
        metrics["fig2_tiny_sweep"]["parallel_skipped_reason"] = (
            f"host has {cores} core(s); pool lane needs > 1")
    return write_bench("exec", metrics, directory=directory)


def test_exec_engine_speedups(tmp_path) -> None:
    run_bench(tmp_path)


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    print(f"wrote {run_bench()}")
