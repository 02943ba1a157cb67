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
    from repro.mem.block import DataBlock
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
        block = DataBlock(f"mig{i}", per_thread)
        node.registry.register(block)
        node.topology.place_block(block, src)
        blocks.append(block)
    done = [env.process(node.mover.move(b, dst), name=f"mv{i}")
            for i, b in enumerate(blocks)]
    env.run(env.all_of(done))
    return {"elapsed": env.now}


def _build(params: _t.Mapping[str, _t.Any]) -> _t.Any:
    from repro.core.api import OOCRuntimeBuilder

    builder = OOCRuntimeBuilder(
        params["strategy"], cores=int(params["cores"]),
        mcdram_capacity=int(params["mcdram"]),
        ddr_capacity=int(params["ddr"]))
    replicate = int(params.get("replicate", 0))
    if replicate == 0:
        return builder.build()
    # Replicate r > 0: permute same-instant event ordering with the
    # explorer's seeded tie-breaker.  Deterministic per (spec, r) — the
    # replicate id is part of the spec identity, so every replicate is
    # its own cache entry and re-runs stay byte-identical.
    from repro.exec.spec import stable_seed
    from repro.race.explorer import SeededTieBreaker
    from repro.sim.environment import Environment

    env = Environment()
    env.set_tie_breaker(SeededTieBreaker(stable_seed("replicate", replicate)))
    return builder.build_into(env)


def run_stencil_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One Stencil3D run; traced runs add Projections-report metrics.

    A traced run subscribes a :class:`~repro.trace.Tracer` for the app
    run only, so no later run in this process sees its probe points.
    """
    from repro.apps.stencil3d import Stencil3D, StencilConfig
    from repro.trace.tracer import Tracer

    built = _build(params)
    cfg = StencilConfig(total_bytes=int(params["total"]),
                        block_bytes=int(params["block"]),
                        iterations=int(params["iterations"]))
    tracer = Tracer(built.env).install() if params.get("trace") else None
    try:
        result = Stencil3D(built, cfg).run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"total_time": result.total_time,
           "mean_iteration_time": result.mean_iteration_time,
           "mean_kernel_time": result.mean_kernel_time}
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


def run_matmul_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One blocked-MatMul run (Figure 9 cell)."""
    from repro.apps.matmul import MatMul, MatMulConfig

    built = _build(params)
    cfg = MatMulConfig.for_working_set(int(params["working_set"]),
                                       block_dim=int(params["block_dim"]))
    result = MatMul(built, cfg).run()
    return {"total_time": result.total_time,
            "mean_kernel_time": result.mean_kernel_time}


def run_spmv_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One iterated-SpMV run (guided-placement sweep cell)."""
    from repro.apps.spmv import SpMV, SpMVConfig

    built = _build(params)
    cfg = SpMVConfig(block_rows=int(params["block_rows"]),
                     block_bytes=int(params["block_bytes"]),
                     vector_bytes=int(params["vector_bytes"]),
                     couplings=int(params["couplings"]),
                     iterations=int(params["iterations"]),
                     seed=int(params.get("seed", 0)))
    result = SpMV(built, cfg).run()
    return {"total_time": result.total_time,
            "mean_iteration_time":
                sum(result.iteration_times) / len(result.iteration_times)}


def run_stream_app_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One STREAM-over-chares run (strategy-sensitive, leaderboard cell)."""
    from repro.apps.stream_app import StreamApp, StreamAppConfig

    built = _build(params)
    cfg = StreamAppConfig(kernel=params.get("kernel", "triad"),
                          array_bytes=int(params["array_bytes"]),
                          chares=int(params["chares"]),
                          repeats=int(params.get("repeats", 2)))
    result = StreamApp(built, cfg).run()
    return {"total_time": result.elapsed_best,
            "bandwidth": result.bandwidth}


def run_schedule_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """One seeded schedule permutation under racesan+simsan."""
    from repro.race.explorer import (matmul_runner, run_schedule,
                                     spmv_runner, stencil_runner)

    machine = dict(strategy=params["strategy"], cores=int(params["cores"]),
                   mcdram=int(params["mcdram"]), ddr=int(params["ddr"]))
    if params["app"] == "stencil":
        runner = stencil_runner(total=int(params["total"]),
                                block=int(params["block"]),
                                iterations=int(params["iterations"]),
                                **machine)
    elif params["app"] == "spmv":
        runner = spmv_runner(block_rows=int(params["block_rows"]),
                             block_bytes=int(params["block_bytes"]),
                             vector_bytes=int(params["vector_bytes"]),
                             couplings=int(params["couplings"]),
                             iterations=int(params["iterations"]),
                             seed=int(params.get("matrix_seed", 0)),
                             **machine)
    else:
        runner = matmul_runner(working_set=int(params["working_set"]),
                               block_dim=int(params["block_dim"]),
                               **machine)
    seed = params.get("seed")
    limit = params.get("limit")
    outcome = run_schedule(runner, seed if seed is None else int(seed),
                           limit=limit if limit is None else int(limit))
    findings = outcome.race_findings + outcome.san_violations
    return {"seed": outcome.seed, "limit": outcome.limit,
            "decisions": outcome.decisions, "error": outcome.error,
            "detail": outcome.detail,
            "races": len(outcome.race_findings),
            "violations": len(outcome.san_violations),
            "tasks_completed": outcome.tasks_completed,
            "failed": outcome.failed,
            "rendered": outcome.render(),
            "finding_lines": [f.render() for f in findings[:8]]}


def run_selftest_spec(params: _t.Mapping[str, _t.Any]) -> dict:
    """Engine-testing kind: spin, fail on demand, or echo a value."""
    if params.get("fail"):
        raise RuntimeError(f"selftest failure: {params.get('fail')}")
    spin = int(params.get("spin", 0))
    acc = 0
    for i in range(spin):
        acc = (acc + i * i) % 1000003
    return {"value": params.get("value"), "spun": acc if spin else 0}


#: spec kind -> executor; keep every entry a top-level function
EXECUTORS: dict[str, _t.Callable[[_t.Mapping[str, _t.Any]], dict]] = {
    "stream": run_stream_spec,
    "memcpy": run_memcpy_spec,
    "stencil": run_stencil_spec,
    "matmul": run_matmul_spec,
    "spmv": run_spmv_spec,
    "stream_app": run_stream_app_spec,
    "schedule": run_schedule_spec,
    "selftest": run_selftest_spec,
}


def execute_spec(payload: _t.Mapping[str, _t.Any]) -> dict:
    """Pool entrypoint: run ``{"kind", "params"}`` with crash isolation.

    Always returns a structured payload — ``{"ok": True, "result", ...}``
    or ``{"ok": False, "error", "traceback"}`` — so one failed spec
    reports an error row instead of killing the sweep.
    """
    t0 = time.perf_counter()
    try:
        executor = EXECUTORS[payload["kind"]]
    except KeyError:
        return {"ok": False, "elapsed_s": 0.0,
                "error": f"unknown spec kind {payload.get('kind')!r}",
                "traceback": ""}
    try:
        result = executor(payload["params"])
    except Exception as exc:  # noqa: BLE001 - isolation is the point
        return {"ok": False, "elapsed_s": time.perf_counter() - t0,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()}
    return {"ok": True, "elapsed_s": time.perf_counter() - t0,
            "result": result}
