"""Probe overhead guard (``BENCH_probe.json``).

Every observer — simsan, racesan and the run's one recorder, whose log
the metrics, span and Projections views read — watches the runtime
through the probe points of
:mod:`repro.hooks`.  With nothing subscribed, each point costs a single
module-global ``is not None`` test.  This bench times one hook-heavy
workload, a 1 GiB Stencil3D run under multi-io on 16 cores, where every
task retains/releases its dependences and the IO threads fetch and
evict continuously, in these lanes:

* ``baseline`` — no subscriber (the default everywhere);
* ``disabled`` — a second identical run; its ratio to ``baseline``
  bounds the cost of the dormant probe sites plus machine noise;
* one *enabled* lane per subscriber: ``simsan`` (a recording
  :class:`~repro.lint.SimSanitizer` with a quiescence sweep),
  ``metrics`` (a full :class:`~repro.metrics.MetricsSession`: the
  recorder plus the fold of its log at every snapshot),
  ``racesan`` (a :class:`~repro.race.RaceSanitizer` with stack capture
  off, to measure the algorithm rather than the traceback module) and
  ``spans`` (a :class:`~repro.obs.SpanTracer`, the causal layer over
  the recorder it installs, plus a critical-path walk of its result) and
  ``projections`` (a :class:`~repro.trace.Tracer` alone, the recorder
  behind the Figure 5/6 intervals).

Every lane sample is timed right after a fresh ``baseline`` sample, and
a lane's ratio is the median over rounds of these adjacent pairs.  On a
shared host the machine's speed drifts by tens of percent from one
second to the next; adjacent pairs cancel that drift, where best-of
times taken across the whole run do not.  A single pair still swings
by tens of percent (metrics pairs read 1.10x-1.63x around a 1.29x
median on a 2-vCPU host), so the median takes ``ROUNDS`` pairs per lane.
Every sample starts from a collected heap; the heap that predates the
measurement is frozen out of those collections, so a sample costs the
same inside a long pytest session as in a fresh process.  The bounds
are loose enough for shared machines but still fail on accidental work
in the disabled path or a quadratic structure in an enabled one.  A
digest of the metrics lane's registry rides along in the record, so the
perf trajectory carries the traffic context (bytes moved, fetch p95)
next to the times.

The pytest entries record under pytest's temporary directory; run this
file as a script to refresh the tracked snapshot::

    PYTHONPATH=src python benchmarks/bench_probe.py
"""

from __future__ import annotations

import gc
import statistics
import time
import typing as _t
from pathlib import Path

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.bench.regression import write_bench
from repro.core.api import OOCRuntimeBuilder
from repro.sim.environment import Environment
from repro.units import GiB, MiB

NOISE_EPSILON = 0.05
#: exclusive ceiling on each lane's median time ratio to the baseline
CEILINGS = {
    "disabled": 1.05 + NOISE_EPSILON,
    # a sanity bound: per-event work is O(1) attribute checks
    "simsan": 3.0,
    "metrics": 1.3 + NOISE_EPSILON,
    # full vector-clock tracking is real work, but bounded work
    "racesan": 2.5 + NOISE_EPSILON,
    # the interval log plus a causal record per interval, the DAG joined
    # from them and the critical-path walk; sources are stamped at send,
    # so the drain loop stays fused
    "spans": 1.6 + NOISE_EPSILON,
    # one interval record per execute/fetch/evict/queue-op: metrics' bound
    "projections": 1.3 + NOISE_EPSILON,
}
LANES = ("baseline", *CEILINGS)
ROUNDS = 15


def run_stencil(lane: str) -> dict[str, _t.Any]:
    """One stencil run with ``lane``'s subscriber; returns what it saw."""
    env = Environment()
    racesan = None
    if lane == "racesan":
        from repro.race import RaceSanitizer
        racesan = RaceSanitizer(stacks=False).install(env)
    built = OOCRuntimeBuilder("multi-io", cores=16,
                              mcdram_capacity=256 * MiB,
                              ddr_capacity=2 * GiB).build_into(env)
    simsan = session = tracer = projections = None
    if lane == "simsan":
        from repro.lint import SimSanitizer
        simsan = SimSanitizer(mode="record").install(built.manager)
    elif lane == "metrics":
        from repro.metrics import MetricsSession
        session = MetricsSession(built, app="stencil", cadence=0.05)
    elif lane == "spans":
        from repro.obs import SpanTracer
        tracer = SpanTracer(env).install()
    elif lane == "projections":
        from repro.trace import Tracer
        projections = Tracer(env).install()
    try:
        cfg = StencilConfig(total_bytes=GiB, block_bytes=16 * MiB,
                            iterations=3)
        Stencil3D(built, cfg).run()
        if simsan is not None:
            assert built.manager.check_quiescent() == 0
    finally:
        for observer in (simsan, racesan, tracer, projections):
            if observer is not None:
                observer.uninstall()
        if session is not None:
            session.finish()
    if simsan is not None:
        assert not simsan.violations, simsan.render()
        return {"simsan_events": float(simsan.events_observed)}
    if racesan is not None:
        assert not racesan.findings, racesan.render_report()
        return {"racesan_events": float(racesan.events_observed),
                "racesan_accesses": float(racesan.accesses_observed)}
    if session is not None:
        from repro.metrics import digest
        return {"digest": digest(session.registry)}
    if tracer is not None:
        from repro.obs import critical_path
        report = critical_path(tracer.spans)
        return {"spans": float(len(tracer.spans)),
                "spans_path_steps": float(len(report.steps)),
                "spans_makespan_s": report.makespan,
                "spans_compute_share": report.share("compute")}
    if projections is not None:
        return {"projections_events": float(len(projections)),
                "projections_samples": float(len(projections.occupancy))}
    return {}


def _timed(lane: str, info: dict[str, _t.Any]) -> float:
    # start every sample from a collected heap, so no lane pays for the
    # garbage of the lane before it
    gc.collect()
    t0 = time.perf_counter()
    info.update(run_stencil(lane))
    return time.perf_counter() - t0


def measure() -> dict[str, _t.Any]:
    """Time every lane; returns best-of times, median ratios, run info."""
    for lane in LANES:
        run_stencil(lane)  # warm caches / imports
    times: dict[str, list[float]] = {lane: [] for lane in LANES}
    ratios: dict[str, list[float]] = {lane: [] for lane in CEILINGS}
    info: dict[str, _t.Any] = {}
    # the heap that exists now (the whole test session, under pytest) is
    # left out of the per-sample collections, which then cost only what
    # the samples themselves allocated
    gc.collect()
    gc.freeze()
    try:
        for _ in range(ROUNDS):
            for lane in CEILINGS:
                base = _timed("baseline", info)
                sample = _timed(lane, info)
                times["baseline"].append(base)
                times[lane].append(sample)
                ratios[lane].append(sample / base)
    finally:
        gc.unfreeze()
    record: dict[str, _t.Any] = {"baseline_s": min(times["baseline"])}
    for lane in CEILINGS:
        record[f"{lane}_s"] = min(times[lane])
        record[f"{lane}_x"] = statistics.median(ratios[lane])
    digest = info.pop("digest")
    record.update(info)
    assert record["simsan_events"] > 0
    assert record["racesan_events"] > 0 and record["racesan_accesses"] > 0
    assert record["spans"] > 0 and record["spans_path_steps"] > 0
    # the decomposition stays conservative on the bench workload too
    assert 0.0 <= record["spans_compute_share"] <= 1.0
    # the interval tracer sees every span the causal tracer closes
    assert record["projections_events"] == record["spans"]
    assert record["projections_samples"] > 0
    assert digest.get("repro_moved_bytes_total", 0) > 0
    print("\nprobe overhead, median of", ROUNDS, "pairs: baseline "
          f"{record['baseline_s'] * 1e3:.1f}ms   " + "   ".join(
              f"{lane} {record[f'{lane}_x']:.2f}x" for lane in CEILINGS))
    return {"scenario": record, "digest": digest}


def check(measured: dict[str, _t.Any], lane: str) -> None:
    record = measured["scenario"]
    assert record[f"{lane}_x"] < CEILINGS[lane], (
        f"{lane}: {record[f'{lane}_x']:.2f}x >= {CEILINGS[lane]:.2f}x")


def write(measured: dict[str, _t.Any], directory: Path | None = None) -> Path:
    """Write BENCH_probe.json; ``directory`` defaults to the repo root."""
    return write_bench("probe", {"stencil_1gib_multi_io": measured["scenario"]},
                       directory=directory, metrics_digest=measured["digest"])


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict[str, _t.Any]:
    result = measure()
    write(result, tmp_path_factory.mktemp("bench_probe"))
    return result


def test_dormant_probe_is_free(measured) -> None:
    check(measured, "disabled")


def test_sanitizer_overhead_is_bounded(measured) -> None:
    check(measured, "simsan")


def test_metrics_overhead_is_bounded(measured) -> None:
    check(measured, "metrics")


def test_race_overhead_is_bounded(measured) -> None:
    check(measured, "racesan")


def test_span_overhead_is_bounded(measured) -> None:
    check(measured, "spans")


def test_projections_overhead_is_bounded(measured) -> None:
    check(measured, "projections")


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    result = measure()
    for lane in CEILINGS:
        check(result, lane)
    print(f"wrote {write(result)}")
