"""Simulation-core microbenchmark: solve batching, memo replay, event churn.

Measures wall-clock of the event core + fluid model on five scenarios and
records them in ``BENCH_simcore.json`` (see :mod:`repro.bench.regression`):

* ``contention_64pe`` — 64 PEs, each with a private read/write port pair,
  several flows per PE, all starting at the same instant wave after wave.
  This is the shape of a 64-core streaming phase (Stencil3D halo exchange,
  STREAM itself).  The fluid network batches each wave's arrivals into
  one solve and re-solves only the finished flow's two-link component per
  departure; the memo replays every repeated component.
* ``shared_link_movers`` — 64 concurrent movers crossing the *same* two
  ports (the Figure 7 memcpy pile-up).  One connected component, so the
  saving here is same-instant batching only; this bounds the worst case.
* ``event_churn`` — no fluid model at all: 64 worker loops on the
  runtime's per-message hop, a delayed ``Store.put_event`` delivery, a
  ``Store.get`` and an ``env.timeout``.  This is the pure event-core hot
  path of the drain loop; the recorded ``ops_per_s`` is the number quoted
  in EXPERIMENTS.md.
* ``steady_phases`` — one phase configuration repeated ten times over a
  shared port pair.  The component memo replays the cached rates for
  every phase after the first.
* ``reordered_phases`` — one mixed-class phase configuration re-entered
  under rotated arrival orders.  The memo key is order-free, so every
  phase after the first replays too.

The fluid scenarios are gated on their solve and memo-hit counts, which
are deterministic: a change that breaks batching or replay moves them.
The event-churn scenario is gated on an absolute throughput floor.  The
pytest entry runs in the default test path (so the perf harness cannot
rot) and records under pytest's ``tmp_path``; run this file as a script
to refresh the tracked snapshot::

    PYTHONPATH=src python benchmarks/bench_simcore.py
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.bench.regression import best_wall_time, write_bench
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from repro.sim.resources import Store

#: scenario shape: a 64-PE machine, a few flows per PE lane
PES = 64
FLOWS_PER_PE = 3
WAVES = 4
#: per-lane port bandwidths (B/s) and per-flow cap, loosely KNL-shaped
READ_BW = 100e9
WRITE_BW = 80e9
FLOW_CAP = 12e9
BASE_BYTES = 256e6


def run_contention(*, pes: int = PES,
                   flows_per_pe: int = FLOWS_PER_PE,
                   waves: int = WAVES) -> tuple[float, FluidNetwork]:
    """64 private lanes, synchronized waves of flow arrivals.

    Returns (simulated end time, the network with its solve counters).
    """
    env = Environment()
    net = FluidNetwork(env)
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


def run_shared_link_movers(*, movers: int = PES,
                           waves: int = WAVES) -> tuple[float, FluidNetwork]:
    """64 concurrent flows across one shared port pair (Figure 7 shape)."""
    env = Environment()
    net = FluidNetwork(env)
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


def run_steady_phases(*, lanes: int = 48, phases: int = 10,
                      sizes: int = 6) -> tuple[float, FluidNetwork]:
    """Steady-state re-solve: one phase configuration repeated verbatim.

    ``lanes`` flows with a small alphabet of (size, cap) combinations all
    start at once over one shared port pair, then drain in staggered
    departure waves — each wave a component re-solve.  Every later phase
    repeats the exact sequence of memo keys of the first, so the memo
    replays all of it.
    """
    env = Environment()
    net = FluidNetwork(env)
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


def run_reordered_phases(*, lanes: int = 24, phases: int = 8,
                         sizes: int = 4) -> tuple[float, FluidNetwork]:
    """One phase configuration re-entered under rotated arrival orders.

    ``lanes`` flows of a few classes (two port pairs sharing one read
    port, three per-flow caps, two weights) start at once and drain in
    staggered departure waves, as in ``steady_phases``; every later
    phase starts the same flows rotated by a different offset.  The memo
    key counts flows per class on each link, so each rotation meets the
    first phase's sequence of keys and replays all of it; a key that
    recorded arrival order would miss on every rotation.
    """
    env = Environment()
    net = FluidNetwork(env)
    read = net.add_link("hbm.read", 400e9)
    writes = (net.add_link("ddr4.write", WRITE_BW),
              net.add_link("mcdram.write", 170e9))
    caps = (FLOW_CAP, 2.5 * FLOW_CAP, math.inf)
    specs = [(BASE_BYTES * (1.0 + (k % sizes) / sizes),
              [read, writes[k % 2]], 1.0 + (k % 5 == 0), caps[k % 3])
             for k in range(lanes)]
    for phase in range(phases):
        shift = (7 * phase) % lanes
        dones = []
        for nbytes, links, weight, cap in specs[shift:] + specs[:shift]:
            flow = net.start_flow(nbytes, links, weight=weight, max_rate=cap)
            dones.append(flow.done)
        env.run(env.all_of(dones))
    return env.now, net


def run_event_churn(*, pes: int = PES, rounds: int = 150) -> tuple[float, int]:
    """Message-delivery churn with no fluid flows (pure event core).

    The feeder delivers each item the way ``CharmRuntime.send`` delivers
    a message: a latency timeout carrying the item, whose callback is the
    store's ``put_event``.  Each of ``pes`` workers loops: blocking ``get``
    from its store, then a tiny timeout — the per-message skeleton of the
    runtime's PE loop.  Returns (simulated end time, total worker
    iterations).
    """
    env = Environment()
    stores = [Store(env, name=f"q{i}") for i in range(pes)]

    def worker(store: Store):
        # bound methods hoisted out of the loop, same as the runtime's own
        # PE loops — the scenario measures the event core, not LOAD_ATTR
        get, timeout = store.get, env.timeout
        while True:
            item = yield get()
            if item is None:
                return
            yield timeout(1e-6)

    def feeder():
        puts = [store.put_event for store in stores]
        timeout = env.timeout
        for r in range(rounds):
            for put in puts:
                timeout(1e-6, r)._cb0 = put
            yield timeout(1e-5)
        for put in puts:
            timeout(1e-6, None)._cb0 = put

    for store in stores:
        env.process(worker(store), name=f"w.{store.name}")
    env.process(feeder(), name="feeder")
    env.run()
    return env.now, rounds * pes


def _measure(run_fn) -> dict:
    elapsed, (sim_time, net) = best_wall_time(run_fn, repeats=2)
    return {"wall_s": elapsed, "sim_time_s": sim_time, "solves": net.solves,
            "memo_hits": net.memo_hits, "memo_misses": net.memo_misses}


#: exact (solves, memo hits) per fluid scenario.  Both counts repeat run
#: to run, so any change to batching, component-local solving or memo
#: replay shows up as a mismatch rather than as wall-clock noise.
EXPECTED_COUNTS = {
    "contention_64pe": (7, 21),
    "shared_link_movers": (5, 15),
    "steady_phases": (43, 387),
    # an arrival-order-sensitive key re-solves every rotation: (72, 16)
    "reordered_phases": (11, 77),
}

#: the churn floor is absolute: the drain loop measured 280k-460k ops/s
#: (best of 15) on a shared 2-core x86 host, so 150k leaves ~2x headroom
#: under the noisiest measurement.
EVENT_CHURN_FLOOR_OPS = 150e3


def run_bench(directory: Path | None = None) -> Path:
    """Measure every scenario, assert the gates, write BENCH_simcore.json.

    ``directory`` defaults to the repository root (the tracked snapshot).
    """
    metrics: dict[str, dict[str, float]] = {
        "contention_64pe": _measure(run_contention),
        "shared_link_movers": _measure(run_shared_link_movers),
        "steady_phases": _measure(run_steady_phases),
        "reordered_phases": _measure(run_reordered_phases),
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
        if "solves" in row:
            print(f"  {scenario}: {row['wall_s']*1e3:.1f}ms "
                  f"({row['solves']} solves, {row['memo_hits']} memo hits)")
        else:
            print(f"  {scenario}: {row['wall_s']*1e3:.1f}ms "
                  f"({row['ops_per_s']/1e3:.0f}k ops/s)")

    for scenario, expected in EXPECTED_COUNTS.items():
        row = metrics[scenario]
        got = (row["solves"], row["memo_hits"])
        assert got == expected, (
            f"{scenario}: (solves, memo hits) {got}, expected {expected}")
    assert churn_ops_per_s >= EVENT_CHURN_FLOOR_OPS, (
        f"event churn at {churn_ops_per_s / 1e3:.0f}k ops/s, below the "
        f"{EVENT_CHURN_FLOOR_OPS / 1e3:.0f}k floor")
    return write_bench("simcore", metrics, directory=directory)


def test_simcore_regression(tmp_path) -> None:
    """Assert the solve-count and churn gates; record under tmp_path."""
    run_bench(tmp_path)


if __name__ == "__main__":  # pragma: no cover - snapshot refresh
    print(f"wrote {run_bench()}")
