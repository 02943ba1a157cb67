"""Simulation-core microbenchmark: incremental vs full solver, event churn.

Measures wall-clock of the event core + fluid model on four scenarios and
records them in ``BENCH_simcore.json`` (see :mod:`repro.bench.regression`):

* ``contention_64pe`` — 64 PEs, each with a private read/write port pair,
  several flows per PE, all starting at the same instant wave after wave.
  This is the shape of a 64-core streaming phase (Stencil3D halo exchange,
  STREAM itself).  The incremental solver batches each wave's arrivals into
  one solve and re-solves only the finished flow's two-link component per
  departure, where the full solver re-solves all 64 PEs every time.
* ``shared_link_movers`` — 64 concurrent movers crossing the *same* two
  ports (the Figure 7 memcpy pile-up).  One connected component, so the
  gain here is same-instant batching only; this bounds the worst case.
* ``event_churn`` — no fluid model at all: 64 store/resource worker loops
  hammering ``Store.get``/``Resource.request``/``env.timeout``.  This is
  the pure event-core hot path of the drain loop; the recorded
  ``ops_per_s`` is the number quoted in EXPERIMENTS.md.
* ``steady_phases`` — one phase configuration repeated ten times over a
  shared port pair.  The flow-set-signature memo replays the cached rate
  vectors for every phase after the first; the recorded speedup is
  memo-off wall over memo-on wall on the identical timeline.

Both fluid scenarios assert the two solvers agree on the simulated
timeline.  The pytest entry runs in the default test path (so the perf
harness cannot rot) and records under pytest's ``tmp_path``; run this
file as a script to refresh the tracked snapshot::

    PYTHONPATH=src python benchmarks/bench_simcore.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.regression import best_wall_time, write_bench
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from repro.sim.resources import Resource, Store

#: scenario shape: a 64-PE machine, a few flows per PE lane
PES = 64
FLOWS_PER_PE = 3
WAVES = 4
#: per-lane port bandwidths (B/s) and per-flow cap, loosely KNL-shaped
READ_BW = 100e9
WRITE_BW = 80e9
FLOW_CAP = 12e9
BASE_BYTES = 256e6


def run_contention(solver: str, *, pes: int = PES,
                   flows_per_pe: int = FLOWS_PER_PE,
                   waves: int = WAVES) -> tuple[float, FluidNetwork]:
    """64 private lanes, synchronized waves of flow arrivals.

    Returns (simulated end time, the network with its solve counters).
    """
    env = Environment()
    net = FluidNetwork(env, solver=solver)
    lanes = [(net.add_link(f"pe{i}.read", READ_BW),
              net.add_link(f"pe{i}.write", WRITE_BW))
             for i in range(pes)]
    for _wave in range(waves):
        dones = []
        for i, (read_link, write_link) in enumerate(lanes):
            for j in range(flows_per_pe):
                # distinct sizes => staggered departures, each a rate change
                nbytes = BASE_BYTES * (1.0 + ((i * flows_per_pe + j) % 7) / 7.0)
                flow = net.start_flow(nbytes, [read_link, write_link],
                                      max_rate=FLOW_CAP)
                dones.append(flow.done)
        env.run(env.all_of(dones))
    return env.now, net


def run_shared_link_movers(solver: str, *, movers: int = PES,
                           waves: int = WAVES) -> tuple[float, FluidNetwork]:
    """64 concurrent flows across one shared port pair (Figure 7 shape)."""
    env = Environment()
    net = FluidNetwork(env, solver=solver)
    src_read = net.add_link("ddr4.read", 80e9)
    dst_write = net.add_link("mcdram.write", 170e9)
    for _wave in range(waves):
        dones = []
        for k in range(movers):
            nbytes = BASE_BYTES * (1.0 + (k % 5) / 5.0)
            flow = net.start_flow(nbytes, [src_read, dst_write],
                                  max_rate=FLOW_CAP)
            dones.append(flow.done)
        env.run(env.all_of(dones))
    return env.now, net


def run_steady_phases(*, memo: bool, lanes: int = 48, phases: int = 10,
                      sizes: int = 6) -> tuple[float, FluidNetwork]:
    """Steady-state re-solve: one phase configuration repeated verbatim.

    ``lanes`` flows with a small alphabet of (size, cap) combinations all
    start at once over one shared port pair, then drain in staggered
    departure waves — each wave a component re-solve.  Every later phase
    repeats the exact flow-set-signature sequence of the first, so the
    memo replays all of it; memo-off recomputes every solve.
    """
    env = Environment()
    net = FluidNetwork(env, solver="incremental", memo=memo)
    read = net.add_link("hbm.read", 400e9)
    write = net.add_link("ddr4.write", WRITE_BW)
    share = WRITE_BW / lanes
    for _phase in range(phases):
        dones = []
        for k in range(lanes):
            nbytes = BASE_BYTES * (1.0 + (k % sizes) / sizes)
            # per-flow caps straddle the fair share: the capped flows
            # freeze one cascade round at a time, making each solve
            # genuinely progressive (the case the memo is for)
            cap = share * (0.4 + 1.6 * k / lanes)
            flow = net.start_flow(nbytes, [read, write], max_rate=cap)
            dones.append(flow.done)
        env.run(env.all_of(dones))
    return env.now, net


def run_event_churn(*, pes: int = PES, rounds: int = 150) -> tuple[float, int]:
    """Store/Resource/Timeout churn with no fluid flows (pure event core).

    Each of ``pes`` workers loops: blocking ``get`` from its store, a
    counted-resource acquire/release, and a tiny timeout — the per-message
    skeleton of the runtime's PE loop.  Returns (simulated end time,
    total worker iterations).
    """
    env = Environment()
    stores = [Store(env, name=f"q{i}") for i in range(pes)]
    res = Resource(env, capacity=32, name="slots")

    def worker(store: Store):
        # bound methods hoisted out of the loop, same as the runtime's own
        # PE loops — the scenario measures the event core, not LOAD_ATTR
        get, request = store.get, res.request
        timeout, release = env.timeout, res.release
        while True:
            item = yield get()
            if item is None:
                return
            yield request()
            yield timeout(1e-6)
            release()

    def feeder():
        puts = [store.put for store in stores]
        timeout = env.timeout
        for r in range(rounds):
            for put in puts:
                put(r)
            yield timeout(1e-5)
        for put in puts:
            put(None)

    for store in stores:
        env.process(worker(store), name=f"w.{store.name}")
    env.process(feeder(), name="feeder")
    env.run()
    return env.now, rounds * pes


def _measure(run_fn, solver: str) -> dict:
    elapsed, (sim_time, net) = best_wall_time(
        lambda: run_fn(solver), repeats=2)
    return {"wall_s": elapsed, "sim_time_s": sim_time, "solves": net.solves,
            "solve_wall_s": net.solve_wall_s,
            "memo_hits": net.memo_hits, "memo_misses": net.memo_misses}


#: the contention and steady-phase ratios are machine-independent.  The
#: churn floor is absolute: the one drain loop measured 280k-460k ops/s
#: (best of 15) on a shared 2-core x86 host, so 150k leaves ~2x headroom
#: under the noisiest measurement.  It sits below the 955k that PR 10's
#: handle recycling recorded (530k-850k on the same host in the same
#: session); that mode was removed together with its second copy of the
#: loop, and the figure plans never used it.
CONTENTION_FLOOR = 3.0
EVENT_CHURN_FLOOR_OPS = 150e3
STEADY_MEMO_FLOOR = 1.5


def run_bench(directory: Path | None = None) -> Path:
    """Measure every scenario, assert the floors, write BENCH_simcore.json.

    ``directory`` defaults to the repository root (the tracked snapshot).
    """
    metrics: dict[str, dict[str, float]] = {}

    full = _measure(run_contention, "full")
    inc = _measure(run_contention, "incremental")
    # identical simulated timelines (same final instant)
    assert inc["sim_time_s"] == pytest.approx(full["sim_time_s"], rel=1e-9)
    contention_speedup = full["wall_s"] / inc["wall_s"]
    metrics["contention_64pe"] = {
        "full_s": full["wall_s"], "incremental_s": inc["wall_s"],
        "speedup": contention_speedup,
        "full_solves": full["solves"], "incremental_solves": inc["solves"],
        "sim_time_s": inc["sim_time_s"],
    }

    full = _measure(run_shared_link_movers, "full")
    inc = _measure(run_shared_link_movers, "incremental")
    assert inc["sim_time_s"] == pytest.approx(full["sim_time_s"], rel=1e-9)
    metrics["shared_link_movers"] = {
        "full_s": full["wall_s"], "incremental_s": inc["wall_s"],
        "speedup": full["wall_s"] / inc["wall_s"],
        "full_solves": full["solves"], "incremental_solves": inc["solves"],
        "sim_time_s": inc["sim_time_s"],
    }

    on_elapsed, (on_sim, on_net) = best_wall_time(
        lambda: run_steady_phases(memo=True), repeats=2)
    off_elapsed, (off_sim, off_net) = best_wall_time(
        lambda: run_steady_phases(memo=False), repeats=2)
    # the memo must not change the simulated timeline, only the wall cost
    assert on_sim == off_sim
    assert on_net.memo_hits > 0 and off_net.memo_hits == 0
    steady_speedup = off_elapsed / on_elapsed
    metrics["steady_phases"] = {
        "memo_on_s": on_elapsed, "memo_off_s": off_elapsed,
        "speedup": steady_speedup,
        "solves_memo_on": on_net.solves, "solves_memo_off": off_net.solves,
        "memo_hits": on_net.memo_hits, "memo_misses": on_net.memo_misses,
        "sim_time_s": on_sim,
    }

    # best-of-15: the ~25ms scenario is short enough that scheduler noise
    # dominates a 2-repeat best
    churn_elapsed, (churn_sim, churn_ops) = best_wall_time(
        run_event_churn, repeats=15)
    churn_ops_per_s = churn_ops / churn_elapsed
    metrics["event_churn"] = {
        "wall_s": churn_elapsed,
        "ops": churn_ops,
        "ops_per_s": churn_ops_per_s,
        "sim_time_s": churn_sim,
    }

    for scenario, row in metrics.items():
        if "full_s" in row:
            print(f"  {scenario}: full {row['full_s']*1e3:.1f}ms "
                  f"-> incremental {row['incremental_s']*1e3:.1f}ms "
                  f"({row['speedup']:.1f}x; solves "
                  f"{row['full_solves']} -> {row['incremental_solves']})")
        elif "memo_on_s" in row:
            print(f"  {scenario}: memo off {row['memo_off_s']*1e3:.1f}ms "
                  f"-> on {row['memo_on_s']*1e3:.1f}ms "
                  f"({row['speedup']:.1f}x; solves "
                  f"{row['solves_memo_off']} -> {row['solves_memo_on']}, "
                  f"{row['memo_hits']} hits)")
        else:
            print(f"  {scenario}: {row['wall_s']*1e3:.1f}ms "
                  f"({row['ops_per_s']/1e3:.0f}k ops/s)")

    assert contention_speedup >= CONTENTION_FLOOR, (
        f"incremental solver only {contention_speedup:.2f}x faster on the "
        f"64-PE contention scenario (wanted >={CONTENTION_FLOOR}x)")
    assert churn_ops_per_s >= EVENT_CHURN_FLOOR_OPS, (
        f"event churn at {churn_ops_per_s / 1e3:.0f}k ops/s, below the "
        f"{EVENT_CHURN_FLOOR_OPS / 1e3:.0f}k floor")
    assert steady_speedup >= STEADY_MEMO_FLOOR, (
        f"solver memo only {steady_speedup:.2f}x faster on the repeated-"
        f"phase scenario (wanted >={STEADY_MEMO_FLOOR}x)")
    return write_bench("simcore", metrics, directory=directory)


def test_simcore_regression(tmp_path) -> None:
    """Assert the contention/churn/memo floors; record under tmp_path."""
    run_bench(tmp_path)


def test_solvers_agree_on_solve_counts() -> None:
    """The incremental solver must do strictly less solving work."""
    _, full_net = run_contention("full", pes=8, flows_per_pe=2, waves=2)
    _, inc_net = run_contention("incremental", pes=8, flows_per_pe=2,
                                waves=2)
    assert inc_net.solves < full_net.solves


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    print(f"wrote {run_bench()}")
