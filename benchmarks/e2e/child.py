"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per (workload, round) so that peak RSS
and module-level caches belong to that round alone.  It runs the
workload's specs serially through :func:`repro.exec.runners.execute_spec`
and prints one JSON line: per-spec wall and set-up times, the host-speed
probe timed before each run and after the last, result digests, layer
counters and, with ``--profile``, the cProfile layer split.

Layers are measured from outside: :class:`EntryTimers` wraps
``OOCRuntimeBuilder.build_into`` and the app classes' ``__init__`` and
``run``, and reads public counters off each ``BuiltRuntime``.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import json
import pstats
import resource
import sys
import typing as _t
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and insist on it."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def digest(obj: _t.Any) -> str:
    from repro.exec.spec import canonical_json

    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def counters(built: _t.Any) -> dict[str, float]:
    """Public per-layer counters of one finished run."""
    machine, manager = built.machine, built.manager
    summary = manager.summary()
    return {
        "fluid.solves": machine.network.solves,
        "fluid.memo_hits": machine.network.memo_hits,
        "fluid.memo_misses": machine.network.memo_misses,
        "runtime.messages_sent": built.runtime.messages_sent,
        "runtime.tasks_executed": sum(pe.tasks_executed
                                      for pe in built.runtime.pes),
        "core.tasks_intercepted": summary["tasks_intercepted"],
        "core.fetches": summary["fetches"],
        "core.evictions": summary["evictions"],
        "core.bytes_fetched": summary["bytes_fetched"],
        "core.bytes_evicted": summary["bytes_evicted"],
        "core.rejected_fits": summary["hbm_rejected_fits"],
        "mem.moves": machine.mover.moves_completed,
        "mem.bytes_moved": machine.mover.bytes_moved,
        "machine.kernels": machine.kernels_executed,
    }


class EntryTimers:
    """Timing wrappers around the build and app entry points.

    Each run gets one span for each of build, app-init and app-run;
    ``setup_s`` sums build and app-init.  With ``observed``, a
    ``MetricsSession`` and a ``SpanTracer`` are installed right after the
    build, as the CLI does, and removed by :meth:`end_run`.
    """

    def __init__(self, observed: bool):
        self.observed = observed
        self.built: list[_t.Any] = []
        self.spans: list[dict[str, _t.Any]] = []
        self.setup_s = 0.0
        self.run_label = ""
        self._t0 = perf_counter()
        #: uninstall callbacks of the observers of the current run
        self._stop: list[_t.Callable[[], _t.Any]] = []

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append({"run": self.run_label, "name": name,
                           "start": start - self._t0, "end": end - self._t0})

    def install(self) -> None:
        from repro.apps.matmul import MatMul
        from repro.apps.spmv import SpMV
        from repro.apps.stencil3d import Stencil3D
        from repro.apps.stream_app import StreamApp
        from repro.core.api import OOCRuntimeBuilder

        build_into = OOCRuntimeBuilder.build_into

        def timed_build_into(builder: _t.Any, env: _t.Any) -> _t.Any:
            t0 = perf_counter()
            built = build_into(builder, env)
            t1 = perf_counter()
            self.setup_s += t1 - t0
            self.span("build", t0, t1)
            self.built.append(built)
            if self.observed:
                self._observe(built)
            return built

        OOCRuntimeBuilder.build_into = timed_build_into  # type: ignore[method-assign]
        for cls in (Stencil3D, MatMul, SpMV, StreamApp):
            self._wrap_app(cls)

    def _wrap_app(self, cls: type) -> None:
        init, run = cls.__init__, cls.run

        def timed_init(app: _t.Any, *args: _t.Any, **kwargs: _t.Any) -> None:
            t0 = perf_counter()
            init(app, *args, **kwargs)
            t1 = perf_counter()
            self.setup_s += t1 - t0
            self.span("app_init", t0, t1)

        def timed_run(app: _t.Any, *args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            t0 = perf_counter()
            out = run(app, *args, **kwargs)
            self.span("app_run", t0, perf_counter())
            return out

        cls.__init__ = timed_init  # type: ignore[method-assign]
        cls.run = timed_run  # type: ignore[method-assign]

    def _observe(self, built: _t.Any) -> None:
        from repro.metrics import MetricsSession
        from repro.obs import SpanTracer

        session = MetricsSession(built, app="stencil", cadence=0.02)
        tracer = SpanTracer(built.env).install()
        self._stop = [tracer.uninstall, session.finish]

    def end_run(self) -> None:
        """Remove the current run's observers, also after a failed run."""
        for stop in self._stop:
            stop()
        self._stop = []


def run_round(workload_name: str, seed: int, *, profile: bool,
              smoke: bool, observers: bool) -> dict[str, _t.Any]:
    from repro.exec.runners import execute_spec

    import hostprobe
    import layers
    from workloads import WORKLOADS, unique_specs

    workload = WORKLOADS[workload_name]
    plans = workload.plans(workload.variant(seed))
    specs = unique_specs(plans)
    if smoke:
        specs = specs[:1]

    timers = EntryTimers(workload.observed and observers)
    timers.install()
    profiler = cProfile.Profile() if profile else None
    results: dict[str, _t.Any] = {}
    walls: list[float] = []
    setups: list[float] = []
    host_probes: list[float] = []
    run_digests: list[str] = []
    totals: dict[str, float] = {}
    failed = 0
    for spec in specs:
        host_probes.append(hostprobe.probe())
        timers.run_label = spec.display()
        timers.built.clear()
        setup_before = timers.setup_s
        t0 = perf_counter()
        if profiler is not None:
            profiler.enable()
        out = execute_spec({"kind": spec.kind, "params": spec.params})
        timers.end_run()
        if profiler is not None:
            profiler.disable()
        t1 = perf_counter()
        walls.append(t1 - t0)
        setups.append(timers.setup_s - setup_before)
        timers.span("run", t0, t1)
        if out["ok"]:
            results[spec.key()] = out["result"]
            run_digests.append(digest(out["result"]))
        else:
            failed += 1
            run_digests.append("error: " + out["error"])
            print(out["traceback"], file=sys.stderr)
        for built in timers.built:
            for name, value in counters(built).items():
                totals[name] = totals.get(name, 0) + value

    host_probes.append(hostprobe.probe())  # brackets the last run

    table_digests = []
    if not smoke and not failed:
        for plan in plans:
            table = plan.assemble([results[s.key()] for s in plan.specs])
            table_digests.append(digest(dataclasses.asdict(table)))

    report: dict[str, _t.Any] = {
        "spec_wall_s": walls,
        "spec_setup_s": setups,
        "probe_s": host_probes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed": failed,
        "run_digests": run_digests,
        "table_digests": table_digests,
        "counters": totals,
        "spans": timers.spans,
    }
    if profiler is not None:
        report["layers"] = layers.split(pstats.Stats(profiler), SRC)
    return report


def main(argv: _t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the workload's first spec")
    parser.add_argument("--no-observers", action="store_true",
                        help="skip the observed workload's observers")
    args = parser.parse_args(argv)
    import_repro()
    report = run_round(args.workload, args.seed, profile=args.profile,
                       smoke=args.smoke, observers=not args.no_observers)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
