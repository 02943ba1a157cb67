"""End-to-end figure-plan benchmark, with a per-layer traced run.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--rounds N]
                                 [--seconds S] [--trace [0|1]] [--json PATH]

Each (workload, round) runs in a fresh child process (``child.py``), one at
a time; this process only waits.  A discarded warm-up child goes first.
Rounds rotate the workload order and repeat until at least ``--rounds``
rounds and ``--seconds`` seconds are done.  Every run's result and every
assembled figure table is checked against ``golden.json``.  Times are
scaled to a reference host speed by the probe in ``hostprobe.py``.

Output: one line ``workload metric value unit q1=.. q3=.. n=..`` per
metric (medians over rounds), then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics, or with ``--trace`` the per-layer ones.  With ``--trace``, each
round is an untraced child plus a child under cProfile, at least one such
pair, and the build/app-init/app-run spans go to ``out/``.

Exit status: 0 when every output matches its golden, 1 on a mismatch or a
crashed round, 2 on bad usage or when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import typing as _t
from pathlib import Path
from time import perf_counter

from hostprobe import REFERENCE_S
from layers import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: one round must finish well inside the 180 s a whole run may take
CHILD_TIMEOUT_S = 150

#: end-to-end metric -> unit; the JSON result of an untraced run
E2E = {"wall_s": "s", "slowest_spec_s": "s", "setup_s": "s",
       "peak_rss_mb": "MB"}
#: printed beside the end-to-end metrics, not part of the JSON result
CONTEXT = {"failed_frac": "fraction", "raw_wall_s": "s", "host_probe_s": "s"}
#: per-layer metric -> unit; the JSON result of a ``--trace`` run
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("self_share", "fraction"))},
    "bench.trace_overhead_x": "x",
    "sim.step_calls": "count", "sim.host_us_per_step": "us",
    "fluid.solves": "count", "fluid.memo_hits": "count",
    "fluid.memo_hit_ratio": "fraction", "fluid.flows_started": "count",
    "runtime.messages_sent": "count", "runtime.tasks_executed": "count",
    "core.tasks_intercepted": "count", "core.fetches": "count",
    "core.evictions": "count", "core.bytes_fetched": "bytes",
    "core.bytes_evicted": "bytes", "core.fit_reject_ratio": "fraction",
    "core.missing_bytes_calls": "count", "core.missing_bytes_cum_s": "s",
    "core.victim_scans": "count", "core.victim_scan_cum_s": "s",
    "mem.moves": "count", "mem.bytes_moved": "bytes",
    "machine.kernels": "count",
}


class BenchError(Exception):
    """A round crashed or timed out; the run cannot report metrics."""


def child_env() -> dict[str, str]:
    # REPRO_* switches fork simulator behaviour; measure the defaults
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, *, profile: bool = False,
              smoke: bool = False, observers: bool = True) -> dict:
    """One round in a fresh interpreter; returns its JSON report."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--profile"] * profile + ["--smoke"] * smoke
    cmd += ["--no-observers"] * (not observers)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: round exceeded {CHILD_TIMEOUT_S}s")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: round exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: _t.Sequence[float]) -> dict[str, float]:
    """Median, quartiles (as ``statistics.quantiles(n=4)``) and n."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def check(rounds: _t.Sequence[dict], golden: dict | None,
          smoke: bool) -> tuple[int, int]:
    """(outputs checked, outputs wrong) over every round of one workload.

    Outputs are each run's result digest, each figure-table digest, and
    the round's layer counters, which must repeat exactly across rounds.
    A workload without a golden entry fails every output.
    """
    want: list[str] = []
    if golden is not None:
        want = golden["runs"][:1] if smoke else golden["runs"] + golden["tables"]
    attempted = failed = 0
    for report in rounds:
        got = report["run_digests"] + report["table_digests"]
        attempted += max(len(got), len(want)) + 1
        failed += sum(g != w for g, w in itertools.zip_longest(got, want))
        failed += report["counters"] != rounds[0]["counters"]
    return attempted, failed


def at_reference_speed(report: dict) -> dict[str, float]:
    """One round's times, each run scaled by the probes on either side."""
    probes = report["probe_s"]
    scales = [2 * REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
    walls = [w * k for w, k in zip(report["spec_wall_s"], scales)]
    return {
        "wall_s": sum(walls),
        "slowest_spec_s": max(walls),
        "setup_s": sum(u * k for u, k in zip(report["spec_setup_s"], scales)),
        # for whole-round times such as the profile's
        "scale": REFERENCE_S / statistics.fmean(probes),
    }


def e2e_metrics(rounds: _t.Sequence[dict]) -> dict[str, dict]:
    scaled = [at_reference_speed(r) for r in rounds]
    out = {name: summary([s[name] for s in scaled])
           for name in ("wall_s", "slowest_spec_s", "setup_s")}
    out["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in rounds])
    out["raw_wall_s"] = summary([sum(r["spec_wall_s"]) for r in rounds])
    out["host_probe_s"] = summary(
        [statistics.fmean(r["probe_s"]) for r in rounds])
    return out


def layer_metrics(untraced: _t.Sequence[dict],
                  traced: _t.Sequence[dict]) -> dict[str, dict]:
    """Per-layer metrics: times from every traced round, counts from one."""
    out: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        out.setdefault(name, []).append(value)

    wall = statistics.median(at_reference_speed(r)["wall_s"]
                             for r in untraced)
    for report in traced:
        scaled = at_reference_speed(report)
        scale = scaled["scale"]
        self_s = report["layers"]["self_s"]
        total = sum(self_s.values())
        for layer in LAYERS:
            add(f"{layer}.self_s", self_s[layer] * scale)
            add(f"{layer}.self_share", self_s[layer] / total)
        add("bench.trace_overhead_x", scaled["wall_s"] / wall)
        calls = report["layers"]["calls"]
        for name in ("core.missing_bytes_cum_s", "core.victim_scan_cum_s"):
            add(name, calls[name] * scale)
    calls, counts = traced[0]["layers"]["calls"], traced[0]["counters"]
    exact = {
        "sim.step_calls": calls["sim.step_calls"],
        "sim.host_us_per_step": wall / max(calls["sim.step_calls"], 1) * 1e6,
        "fluid.memo_hit_ratio": counts["fluid.memo_hits"]
        / max(counts["fluid.memo_hits"] + counts["fluid.memo_misses"], 1),
        "fluid.flows_started": calls["fluid.flows_started"],
        "core.fit_reject_ratio": counts["core.rejected_fits"]
        / max(calls["core.fit_probes"], 1),
        "core.missing_bytes_calls": calls["core.missing_bytes_calls"],
        "core.victim_scans": calls["core.victim_scans"],
    }
    exact.update({k: v for k, v in counts.items() if k in PER_LAYER})
    for name, value in exact.items():
        add(name, value)
    return {name: summary(out[name]) for name in PER_LAYER}


def write_spans(workload: str, seed: int, rounds: _t.Sequence[dict]) -> None:
    """Write the traced rounds' build/app-init/app-run spans to ``out/``."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.spans.json"
    path.write_text(json.dumps([r["spans"] for r in rounds]) + "\n")


def write_golden(path: Path) -> int:
    """Regenerate ``golden.json`` for every workload and seed variant."""
    from workloads import VARIANTS, WORKLOADS

    golden: dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        golden[name] = {}
        for variant in range(VARIANTS if workload.seeded else 1):
            # observers off: observed runs must reproduce the plain results
            report = run_child(name, variant, observers=False)
            if report["failed"]:
                print(f"error: {name} variant {variant}: "
                      f"{report['failed']} run(s) failed", file=sys.stderr)
                return 1
            golden[name][str(variant)] = {
                "runs": report["run_digests"],
                "tables": report["table_digests"]}
            print(f"{name} variant {variant}: "
                  f"{len(report['run_digests'])} runs", flush=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def parse_args(argv: _t.Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end figure-plan benchmark (see README.md).")
    parser.add_argument("--workload", help="one workload (default: all, "
                        "interleaved)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5,
                        help="minimum measured rounds (default 5; with "
                        "--trace, one)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting rounds while they fit in this "
                        "many seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a cProfile child per "
                        "round and report the per-layer metrics")
    parser.add_argument("--json", type=Path, help="also write every "
                        "metric's median, quartiles and n here")
    parser.add_argument("--golden", type=Path, default=GOLDEN)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate --golden for every workload and "
                        "seed variant, then exit")
    parser.add_argument("--smoke", action="store_true",
                        help="run only each workload's first spec")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.write_golden:
        return write_golden(args.golden)
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        golden_doc = json.loads(args.golden.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read goldens {args.golden}: {exc}",
              file=sys.stderr)
        return 2

    untraced: dict[str, list[dict]] = {n: [] for n in names}
    traced: dict[str, list[dict]] = {n: [] for n in names}
    try:
        run_child(names[0], args.seed, smoke=True)  # warm-up, discarded
        min_rounds = 1 if args.trace else args.rounds
        start, last, i = perf_counter(), 0.0, 0
        while i < min_rounds or perf_counter() - start + last <= args.seconds:
            began = perf_counter()
            for name in names[i % len(names):] + names[:i % len(names)]:
                untraced[name].append(
                    run_child(name, args.seed, smoke=args.smoke))
                if args.trace:
                    traced[name].append(run_child(
                        name, args.seed, smoke=args.smoke, profile=True))
            last = perf_counter() - began
            i += 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {**E2E, **CONTEXT, **(PER_LAYER if args.trace else {})}
    attempted = failed = 0
    results: dict[str, dict] = {}
    for name in names:
        variant = str(WORKLOADS[name].variant(args.seed))
        golden = golden_doc.get(name, {}).get(variant)
        if golden is None:
            print(f"error: {args.golden} has no entry for {name} variant "
                  f"{variant}; regenerate it with --write-golden",
                  file=sys.stderr)
        n_ok, n_bad = check(untraced[name] + traced[name], golden,
                            args.smoke)
        attempted, failed = attempted + n_ok, failed + n_bad
        metrics = e2e_metrics(untraced[name])
        metrics["failed_frac"] = summary([n_bad / n_ok])
        if args.trace:
            metrics.update(layer_metrics(untraced[name], traced[name]))
            write_spans(name, args.seed, traced[name])
        results[name] = metrics
        for metric, s in metrics.items():
            print(f"{name} {metric} {s['median']:.6g} {units[metric]} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")

    declared = PER_LAYER if args.trace else E2E
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {}}
    for name, metrics in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in declared.items():
            line["metrics"][prefix + metric] = {
                "value": metrics[metric]["median"], "unit": unit}
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "seed": args.seed, "trace": bool(args.trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "units": units, "workloads": results}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
