"""Spec executors: the functions a worker process runs for each kind.

Every executor is a module-level function (picklable across the
``ProcessPoolExecutor`` fork) that takes a spec's ``params`` mapping
and returns a JSON-able result dict.  All simulation state is built
fresh inside the call, so a spec's result is a pure function of its
params — the property both the parallel fan-out and the content cache
rely on.

:func:`execute_spec` is the pool entrypoint: it wraps the executor in
crash isolation, returning a structured ``{"ok": False, "error": ...}``
payload instead of letting one bad config kill the whole sweep.
"""

from __future__ import annotations

import functools
import gc
import time
import traceback
import typing as _t

__all__ = ["EXECUTORS", "execute_spec"]


def run_stream_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One STREAM kernel on one memory node (Figure 1 cell)."""
    from repro.machine.knl import build_knl
    from repro.machine.stream import run_stream
    from repro.sim.environment import Environment

    env = Environment()
    node = build_knl(env)
    result = run_stream(node, params["device"], kernel=params["kernel"],
                        threads=int(params["threads"]),
                        array_bytes=int(params["array_bytes"]))
    return {"bandwidth": result.bandwidth}


def run_memcpy_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """N concurrent movers migrating equal slices (Figure 7 cell)."""
    from repro.machine.knl import build_knl
    from repro.sim.environment import Environment

    threads = int(params["threads"])
    per_thread = max(int(params["total_bytes"]) // threads, 1)
    env = Environment()
    node = build_knl(env, mcdram_capacity=int(params["mcdram"]),
                     ddr_capacity=int(params["ddr"]))
    if params["direction"] == "ddr-to-hbm":
        src, dst = node.ddr, node.hbm
    else:
        src, dst = node.hbm, node.ddr
    blocks = []
    for i in range(threads):
        block = node.registry.declare(f"mig{i}", per_thread)
        node.topology.place_block(block, src)
        blocks.append(block)
    done = [env.process(node.mover.move(b, dst), name=f"mv{i}")
            for i, b in enumerate(blocks)]
    env.run(env.all_of(done))
    elapsed = env.now
    env.close()
    return {"elapsed": elapsed}


def run_app_spec(app: str, params: _t.Mapping[str, _t.Any]) -> dict:
    """One catalogue app run; traced runs add Projections-report metrics.

    A traced run (``params["trace"]``, set by the Figure 5/6 stencil
    specs) subscribes a :class:`~repro.trace.Tracer` for the app run
    only, so no later run in this process sees its probe points.  Once
    the result is read, or the run raised, ``Environment.close()`` ends
    the run, so its object graph frees by reference count.
    """
    from repro.exec.apps import APPS, build
    from repro.sim.environment import Environment
    from repro.trace.tracer import Tracer

    entry = APPS[app]
    env = Environment()
    try:
        replicate = int(params.get("replicate", 0))
        if replicate:
            # Replicate r > 0: permute same-instant event ordering with
            # the explorer's seeded tie-breaker.  Deterministic per
            # (spec, r) — the replicate id is part of the spec identity,
            # so every replicate is its own cache entry and re-runs stay
            # byte-identical.
            from repro.exec.spec import stable_seed
            from repro.race.explorer import SeededTieBreaker

            env.set_tie_breaker(
                SeededTieBreaker(stable_seed("replicate", replicate)))
        built = build(params, env)
        cfg = entry.config(params)
        tracer = Tracer(env).install() if params.get("trace") else None
        try:
            result = entry.cls(built, cfg).run()
        finally:
            if tracer is not None:
                tracer.uninstall()
        out = entry.result(result)
        if tracer is not None:
            from repro.trace.projections import build_report

            report = build_report(tracer)
            tasks_per_pe = {f"pe{pe.id}": pe.tasks_executed
                            for pe in built.runtime.pes}
            out["wait_fraction"] = report.mean_wait_fraction()
            out["utilization"] = report.mean_utilization()
            out["preprocess_per_task"] = \
                report.mean_preprocess_per_task(tasks_per_pe)
        return out
    finally:
        env.close()


def run_schedule_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One seeded schedule permutation under racesan+simsan.

    ``params["params"]`` is the app run's own params mapping, nested so
    its keys (SpMV's matrix ``seed``) never meet the schedule's ``seed``.
    """
    from repro.race.explorer import app_runner, run_schedule

    outcome = run_schedule(app_runner(params["app"], params["params"]),
                           int(params["seed"]))
    return {"seed": outcome.seed, "failed": outcome.failed,
            "rendered": outcome.render()}


def run_selftest_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """Engine-testing kind: spin, fail on demand, or echo a value."""
    if params.get("fail"):
        raise RuntimeError(f"selftest failure: {params.get('fail')}")
    spin = int(params.get("spin", 0))
    acc = 0
    for i in range(spin):
        acc = (acc + i * i) % 1000003
    return {"value": params.get("value"), "spun": acc if spin else 0}


#: spec kind -> executor
EXECUTORS: dict[str, _t.Callable[[_t.Mapping[str, _t.Any]], dict]] = {
    "stream": run_stream_spec,
    "memcpy": run_memcpy_spec,
    "stencil": functools.partial(run_app_spec, "stencil"),
    "matmul": functools.partial(run_app_spec, "matmul"),
    "spmv": functools.partial(run_app_spec, "spmv"),
    "stream_app": functools.partial(run_app_spec, "stream"),
    "schedule": run_schedule_spec,
    "selftest": run_selftest_spec,
}


def execute_spec(payload: _t.Mapping[str, _t.Any]) -> dict:
    """Pool entrypoint: run ``{"kind", "params"}`` with crash isolation.

    Always returns a structured payload — ``{"ok": True, "result", ...}``
    or ``{"ok": False, "error", "traceback"}`` — so one failed spec
    reports an error row instead of killing the sweep.

    The spec runs with the cyclic garbage collector paused: a run frees
    its object graph by reference count (app runs end with
    ``Environment.close()``), so a collection in mid-run would only walk
    live objects.  The caller's collector state is restored on return.
    """
    t0 = time.perf_counter()
    try:
        executor = EXECUTORS[payload["kind"]]
    except KeyError:
        return {"ok": False, "elapsed_s": 0.0,
                "error": f"unknown spec kind {payload.get('kind')!r}",
                "traceback": ""}
    collecting = gc.isenabled()
    gc.disable()
    try:
        result = executor(payload["params"])
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return {"ok": False, "elapsed_s": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}
    finally:
        if collecting:
            gc.enable()
    return {"ok": True, "elapsed_s": time.perf_counter() - t0,
            "result": result}
