"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments``
    Regenerate the paper's figures (all or a subset) and print the tables.
    ``-j/--jobs N`` fans the underlying simulation runs out over N worker
    processes; results are cached content-addressed in ``.repro-cache/``
    (key: canonical run spec + a fingerprint of ``src/repro``), so a
    re-run after an unrelated edit is answered from disk.  ``--no-cache``
    bypasses the cache, ``--cache-stats`` prints hit/miss counts to
    stderr.  Tables are byte-identical whatever ``--jobs`` is.  A table
    that breaks a paper claim prints ``FigN: claim failed: ...`` and exits 1.
``cache``
    Inspect (``stats``) or delete (``clear``) the on-disk result cache.
``stencil`` / ``matmul`` / ``spmv``
    Run one application configuration under one strategy and report
    timings plus the OOC manager summary.  ``--sanitize`` runs under the
    :mod:`repro.lint` runtime sanitizer and fails on invariant violations.
    ``--spans`` records the :mod:`repro.obs` causal span DAG and prints
    the critical-path makespan decomposition after the run; with
    ``--trace-out`` the spans (and their causal flow arrows) are merged
    into the exported Chrome trace.
``stream``
    Print the Figure-1 STREAM table (``--sanitize`` supported).
``lint``
    Statically check dependence declarations (``@entry`` vs kernel usage,
    rules ``REP1xx``), the placement-state protocol of the strategies and
    mover (``REP2xx``) and inferred memory traffic (bwlint, ``REP3xx``)
    in files, directories or importable modules.  Exit codes: 0 clean, 1 findings,
    2 the analyzer itself failed (the offending file and function are
    named on stderr).  ``--select REP3`` filters by rule-id prefix
    (repeat the flag for several; a prefix no rule id has exits 2), so
    ``--strict --select REP2`` is the placement-state model checker alone;
    ``--format sarif`` emits a canonical SARIF 2.1.0 document on stdout
    (summary on stderr).  Warm re-runs are answered from the
    fingerprint-keyed analysis cache in ``.repro-cache/``;
    ``--no-cache`` bypasses it.
``guide``
    Emit the bwlint placement-guidance file (canonical JSON, SHA-256
    identity) that ``--strategy static-guided`` and ``--strategy
    phase-guided`` build in-process from ``repro.apps``.  ``--phases``
    prints the deterministic human-readable phase-timeline render instead
    of the JSON.
``metrics``
    Run one application under the :mod:`repro.metrics` telemetry
    subsystem and export the flight-recorder output (``--format
    prom|json|report``); ``--watch`` narrates snapshot deltas live.
    ``stencil``/``matmul`` also accept ``--metrics`` to append the same
    output to a normal run.
``race``
    The :mod:`repro.race` dynamic checkers: run one app under the
    happens-before race detector, exploring ``--explore-schedules N``
    seeded event orderings (``-j/--jobs`` explores seeds in parallel) and
    minimizing the first failure to a ``(--seed, --limit)`` replay token.
    ``stencil``/``matmul``/``spmv`` accept ``--race`` to run the detector
    on a normal run.
``report``
    The self-reporting experiment suite: run figure sweeps across N
    seeded schedule replicates on the parallel engine, print mean ± 95%
    CI tables with Welch significance tests against ``--baseline``, and
    write one self-contained HTML report (inline SVG, no external
    assets).  Warm-cache re-runs reproduce the file byte for byte.
``leaderboard``
    Rank every placement strategy across the four chare applications:
    N seeded schedule replicates per (app, strategy) cell on the
    parallel engine, makespan mean ± 95% CI per cell, Welch t-tests
    against ``--baseline``, and a ranking by geometric-mean slowdown
    versus the per-app best — plus one self-contained HTML report.
    Working sets fit the scaled HBM tier so ``hbm-only`` (which
    refuses overflow) participates.
``trend``
    The BENCH trend dashboard: ``append`` folds the repo's current
    ``BENCH_*.json`` snapshots into ``bench_history.jsonl`` (keyed by
    commit, idempotent), ``render`` turns the history into a standalone
    sparkline HTML page.

Examples::

    python -m repro experiments --figures fig1 fig8 --scale small
    python -m repro experiments --all -j 8 --cache-stats
    python -m repro cache stats
    python -m repro stencil --strategy multi-io --total 2GiB --block 4MiB
    python -m repro matmul --strategy single-io --working-set 1.5GiB
    python -m repro lint src/repro/apps examples
    python -m repro stencil --sanitize --total 512MiB --block 8MiB
    python -m repro stencil --metrics --format report
    python -m repro metrics --app stencil --watch --format prom
    python -m repro lint --strict --select REP2 src/repro/core/strategies
    python -m repro race --app stencil --explore-schedules 8 -j 4
    python -m repro stencil --race --total 256MiB --block 16MiB
    python -m repro spmv --strategy multi-io --block-rows 32
    python -m repro stencil --spans --trace-out trace.json
    python -m repro report --figures fig2 fig8 --replicates 5 \
        --baseline "Single IO thread" -j 8 -o report.html
    python -m repro leaderboard --replicates 3 --baseline multi-io \
        -o leaderboard.html
    python -m repro trend append --commit $GITHUB_SHA
    python -m repro trend render -o trend.html
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import typing as _t

from repro.bench import experiments as exps
from repro.bench.harness import Scale, run_plan
from repro.bench.report import render_experiment
from repro.core.strategies import STRATEGIES
from repro.errors import ConfigError
from repro.exec.apps import APPS, build
from repro.sim.environment import Environment
from repro.units import format_size, format_time, parse_size

__all__ = ["main"]

_SCALES = {"tiny": Scale.TINY, "small": Scale.SMALL,
           "medium": Scale.MEDIUM, "full": Scale.FULL}


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line naming the bad value, then exit 2."""

    def error(self, message: str) -> _t.NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _size(text: str) -> int:
    """argparse ``type=`` for byte sizes: bad text is a usage error."""
    try:
        return parse_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_machine_args(parser: argparse.ArgumentParser, *,
                      checks: bool = True) -> None:
    """The machine and observer flags of one app run.

    ``checks`` adds the checker flags (``--sanitize``, ``--race``), which
    only the app commands honour; the schedule flags live on ``repro
    race``.
    """
    parser.add_argument("--strategy", default="multi-io",
                        choices=sorted(STRATEGIES))
    parser.add_argument("--cores", type=int, default=64)
    parser.add_argument("--mcdram", type=_size, default="1GiB",
                        help="HBM capacity (default 1GiB = 1/16 scale)")
    parser.add_argument("--ddr", type=_size, default="6GiB",
                        help="DDR4 capacity (default 6GiB = 1/16 scale)")
    if checks:
        parser.add_argument("--sanitize", action="store_true",
                            help="run under the repro.lint runtime "
                                 "sanitizer (simsan); non-zero exit on "
                                 "violations")
    parser.add_argument("--metrics", action="store_true",
                        help="record repro.metrics telemetry and print it "
                             "after the run")
    parser.add_argument("--format", default="report",
                        choices=["prom", "json", "report"],
                        help="metrics output format (with --metrics)")
    parser.add_argument("--metrics-interval", type=float, default=0.02,
                        metavar="SIMSECONDS",
                        help="flight-recorder snapshot cadence in "
                             "simulated seconds (default 0.02)")
    parser.add_argument("--spans", action="store_true",
                        help="record the repro.obs causal span DAG and "
                             "print the critical-path decomposition")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace (open in Perfetto); "
                             "merges metrics counter tracks with "
                             "--metrics and causal flow arrows with "
                             "--spans")
    if not checks:
        return
    parser.add_argument("--race", action="store_true",
                        help="run under the repro.race happens-before "
                             "detector (racesan); non-zero exit on races")


def _add_shape_args(parser: argparse.ArgumentParser,
                    apps: _t.Sequence[str], **defaults: _t.Any) -> None:
    """Register the shape flags of ``apps`` from the app catalogue.

    ``defaults`` are the command's own, keyed by params key; a flag two
    apps share (``--iterations``) is registered once.  Flag help shows
    on single-app commands only.
    """
    seen: set[str] = set()
    for app in apps:
        for field in APPS[app].shape:
            if field.key in seen:
                continue
            seen.add(field.key)
            parser.add_argument(field.flag, type=_size if field.size else int,
                                default=defaults[field.key],
                                help=field.help if len(apps) == 1 else None)


def _app_params(args: argparse.Namespace, app: str) -> dict[str, _t.Any]:
    """The run's params mapping (:mod:`repro.exec.apps`) from the flags."""
    return {"strategy": args.strategy, "cores": args.cores,
            "mcdram": args.mcdram, "ddr": args.ddr,
            **{field.key: getattr(args, field.dest)
               for field in APPS[app].shape}}


def _check_observer_args(args: argparse.Namespace) -> None:
    """Reject bad observer options before anything is simulated."""
    interval = args.metrics_interval
    if not interval > 0:
        raise ConfigError(f"--metrics-interval must be > 0, got {interval:g}")
    _check_out_dir("--trace-out", args.trace_out)


def _check_out_dir(flag: str, path: str | None) -> None:
    """Reject an output ``path`` that cannot be written, before any work:
    one whose directory is missing, or one that is itself a directory."""
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ConfigError(f"{flag} {path}: no such directory {parent}")
        if os.path.isdir(path):
            raise ConfigError(f"{flag} {path}: is a directory")


@contextlib.contextmanager
def _projections(args: argparse.Namespace, built: _t.Any, *,
                 always: bool = False) -> _t.Iterator[_t.Any]:
    """Subscribe a Projections :class:`~repro.trace.Tracer` for the app.

    Only when something reads its intervals: ``--trace-out``, or
    ``always`` (the stencil command renders HBM occupancy).  Wrap the
    app's construction too, which already runs its setup phase.
    """
    if not (always or args.trace_out):
        yield None
        return
    from repro.trace.tracer import Tracer

    tracer = Tracer(built.env).install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _start_sanitizer(args: argparse.Namespace) -> _t.Any:
    """Install the runtime sanitizer when ``--sanitize`` was given."""
    if not getattr(args, "sanitize", False):
        return None
    from repro.lint import SimSanitizer
    return SimSanitizer(mode="record").install()


def _finish_sanitizer(sanitizer: _t.Any, manager: _t.Any = None) -> int:
    """Quiescence-check, report and uninstall; returns the exit code."""
    if sanitizer is None:
        return 0
    try:
        if manager is not None:
            sanitizer.check_quiescent(manager)
        print(sanitizer.render())
    finally:
        sanitizer.uninstall()
    return 1 if sanitizer.violations else 0


def _start_racesan(args: argparse.Namespace, built: _t.Any) -> _t.Any:
    """Install the happens-before detector when ``--race`` was given."""
    if not getattr(args, "race", False):
        return None
    from repro.race import RaceSanitizer
    return RaceSanitizer().install(built.env)


def _finish_racesan(racesan: _t.Any) -> int:
    """Report and uninstall racesan; returns the exit code."""
    if racesan is None:
        return 0
    try:
        print(racesan.render_report())
    finally:
        racesan.uninstall()
    return 1 if racesan.findings else 0


def _print_outcome(outcome: _t.Any) -> int:
    """Print one schedule's verdict and findings; returns the exit code."""
    print(outcome.render())
    for item in outcome.race_findings + outcome.san_violations:
        print(item.render())
    return 1 if outcome.failed else 0


def _start_spans(args: argparse.Namespace, built: _t.Any) -> _t.Any:
    """Install the causal span tracer when ``--spans`` was given."""
    if not getattr(args, "spans", False):
        return None
    from repro.obs import SpanTracer
    return SpanTracer(built.env).install()


def _finish_spans(tracer: _t.Any, built: _t.Any, window_start: float,
                  title: str) -> "list | None":
    """Uninstall, print the critical-path report; returns the spans."""
    if tracer is None:
        return None
    tracer.uninstall()
    from repro.obs import critical_path
    report = critical_path(tracer.spans, start=window_start,
                           end=built.env.now)
    print(report.render(title=title))
    return tracer.spans


def _write_trace(args: argparse.Namespace, tracer: _t.Any, *,
                 counters: _t.Any = None, spans: _t.Any = None) -> None:
    """Write the merged Chrome trace when ``--trace-out`` was given."""
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return
    from repro.trace import export as trace_export

    payload = trace_export.to_json(tracer, counters=counters, spans=spans)
    with open(trace_out, "w") as fh:
        fh.write(payload)
    # stderr: keep stdout machine-parseable under ``--format json/prom``
    print(f"merged Chrome trace written to {trace_out}", file=sys.stderr)


def _start_metrics(args: argparse.Namespace, built: _t.Any,
                   app: str) -> _t.Any:
    """Open a :class:`repro.metrics.MetricsSession` when asked to."""
    if not getattr(args, "metrics", False):
        return None
    from repro.metrics import MetricsSession, narration_line

    on_snapshot = None
    if getattr(args, "watch", False):
        capacity = built.machine.hbm.capacity
        tier = built.machine.hbm.name

        def on_snapshot(snap, previous):  # noqa: ANN001 - callback
            print(narration_line(snap, previous, hbm_capacity=capacity,
                                 hbm_tier=tier))

    return MetricsSession(built, app=app,
                          cadence=getattr(args, "metrics_interval", 0.02),
                          on_snapshot=on_snapshot)


def _finish_metrics(session: _t.Any, args: argparse.Namespace,
                    app: str, *, spans: _t.Any = None,
                    tracer: _t.Any = None) -> None:
    """Stop the recorder and print the chosen export format.

    Also writes the ``--trace-out`` Chrome trace from ``tracer``'s
    intervals, with the metrics counters and ``spans`` merged in.
    """
    if session is None:
        _write_trace(args, tracer, spans=spans)
        return
    from repro.metrics import (counter_series, render_report, to_json,
                               to_prometheus)

    recorder = session.finish()
    fmt = getattr(args, "format", "report")
    if fmt == "prom":
        print(to_prometheus(session.registry), end="")
    elif fmt == "json":
        print(to_json(session.registry, recorder, indent=2))
    else:
        print(render_report(session.registry, recorder, title=app))
    _write_trace(args, tracer, counters=counter_series(recorder),
                 spans=spans)


def _progress_line(event: dict) -> None:
    """One stderr line per completed run (stdout stays table-only)."""
    print(f"[{event['done']}/{event['total']}] {event['status']:6s} "
          f"{event['spec'].display()} ({event['elapsed_s']:.2f}s)",
          file=sys.stderr)


def _figure_names(args: argparse.Namespace) -> list[str]:
    """The requested figure plans (all of them by default), validated."""
    names = list(args.figures or [])
    if args.all or not names:
        names = sorted(exps.PLANS)
    unknown = sorted(set(names) - set(exps.PLANS))
    if unknown:
        raise ConfigError(f"unknown figure(s) {unknown}; "
                          f"choose from {sorted(exps.PLANS)}")
    return names


def _check_count(flag: str, value: int, minimum: int = 1) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be >= {minimum}, got {value}")


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.exec import ResultCache, run_specs

    _check_count("--jobs", args.jobs)
    scale = _SCALES[args.scale]
    names = _figure_names(args)
    plans = [exps.PLANS[name](scale) for name in names]
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    # one batch across all requested figures: shared runs (e.g. the
    # fig5/fig6 traced multi-io stencil) dedup to a single execution
    specs = [spec for plan in plans for spec in plan.specs]
    results = run_specs(specs, jobs=args.jobs, cache=cache,
                        progress=_progress_line)
    exit_code, idx = 0, 0
    for plan in plans:
        chunk = results[idx:idx + len(plan.specs)]
        idx += len(plan.specs)
        failed = [r for r in chunk if not r.ok]
        if failed:
            exit_code = 1
            for r in failed:
                print(f"{plan.figure}: {r.spec.display()}: {r.error}",
                      file=sys.stderr)
            continue
        result = plan.assemble([r.result for r in chunk])
        print(render_experiment(result))
        print()
        for text in plan.claims(result):
            exit_code = 1
            print(f"{plan.figure}: claim failed: {text}", file=sys.stderr)
    if cache is not None and args.cache_stats:
        stats = cache.session_stats()
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
              f"{stats['stores']} store(s) in {cache.generation}",
              file=sys.stderr)
    return exit_code


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec import cache_stats, clear_cache, default_cache_root

    root = args.cache_dir or default_cache_root()
    if args.action == "clear":
        removed = clear_cache(root)
        print(f"removed {removed} cached result(s) from {root}")
        return 0
    stats = cache_stats(root)
    print(f"cache root : {stats['root']}")
    print(f"current gen: {stats['current']}")
    for name, gen in sorted(stats["generations"].items()):
        marker = " (current)" if name == stats["current"] else ""
        print(f"  {name}: {gen['entries']} entries, "
              f"{gen['bytes']} bytes{marker}")
    print(f"total      : {stats['total_entries']} entries, "
          f"{stats['total_bytes']} bytes")
    return 0


#: the app lines of the ``stencil`` / ``matmul`` / ``spmv`` run report
_HEADERS: dict[str, _t.Callable[[_t.Any, _t.Any], list[str]]] = {
    "stencil": lambda cfg, result: [
        f"chares          : {cfg.n_chares} "
        f"({format_size(cfg.block_bytes)} blocks)",
        f"total time      : {format_time(result.total_time)}",
        f"mean iteration  : {format_time(result.mean_iteration_time)}",
        f"mean kernel/task: {format_time(result.mean_kernel_time)}"],
    "matmul": lambda cfg, result: [
        f"matrix          : {cfg.n} x {cfg.n} "
        f"({cfg.grid}x{cfg.grid} chares)",
        f"total time      : {format_time(result.total_time)}",
        f"mean kernel/task: {format_time(result.mean_kernel_time)}"],
    "spmv": lambda cfg, result: [
        f"block rows      : {cfg.block_rows} "
        f"({format_size(cfg.block_bytes)} matrix blocks, "
        f"{cfg.couplings} coupling(s))",
        f"total time      : {format_time(result.total_time)}",
        f"mean iteration  : {format_time(result.mean_iteration_time)}",
        f"tasks completed : {result.tasks_completed}"],
}


def _cmd_app(args: argparse.Namespace) -> int:
    """Run one app once.

    ``stencil``/``matmul``/``spmv`` print the run report and honour the
    checker flags; ``metrics`` prints only the telemetry.
    """
    _check_observer_args(args)
    report = args.command != "metrics"
    app = args.command if report else args.app
    params = _app_params(args, app)
    entry = APPS[app]
    cfg = entry.config(params)
    sanitizer = _start_sanitizer(args)
    built = build(params, Environment())
    if sanitizer is not None:
        sanitizer.bind(built.manager)
    racesan = _start_racesan(args, built)
    metrics = _start_metrics(args, built, app)
    spans = _start_spans(args, built)
    window_start = built.env.now
    occupancy = report and app == "stencil"
    try:
        with _projections(args, built, always=occupancy) as tracer:
            result = entry.cls(built, cfg).run()
    except BaseException:
        # a run that raised (say, a working set no device can hold) must
        # not leave its observers subscribed in the caller's process
        if metrics is not None:
            metrics.finish()
        for observer in (spans, racesan, sanitizer):
            if observer is not None:
                observer.uninstall()
        raise
    if report:
        print(f"strategy        : {args.strategy}")
        for line in _HEADERS[app](cfg, result):
            print(line)
        for key, value in built.manager.summary().items():
            print(f"{key:16s}: {value}")
    if occupancy:
        from repro.trace.occupancy import render_occupancy
        print("hbm occupancy   :")
        print(render_occupancy(tracer.occupancy,
                               built.machine.hbm.capacity, width=60))
    span_list = _finish_spans(spans, built, window_start,
                              f"{app}/{args.strategy}")
    _finish_metrics(metrics, args, app, spans=span_list, tracer=tracer)
    race_code = _finish_racesan(racesan)
    return max(race_code, _finish_sanitizer(sanitizer, built.manager))


def _cmd_stream(args: argparse.Namespace) -> int:
    sanitizer = _start_sanitizer(args)
    print(render_experiment(run_plan(exps.fig1_plan(threads=args.threads))))
    return _finish_sanitizer(sanitizer)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import RULES, AnalyzerCrash

    if args.rules:
        for rule in RULES.values():
            print(f"{rule.id} {rule.severity.value:7s} {rule.title}")
            print(f"    {rule.description}")
        return 0
    if not args.targets:
        raise ConfigError("lint: no targets given (files, directories or "
                          "module names)")
    prefixes = tuple(args.select or ())
    for prefix in prefixes:
        # a prefix no rule has would filter every finding away and pass
        # the gate without checking anything
        if not any(rule_id.startswith(prefix) for rule_id in RULES):
            raise ConfigError(f"--select {prefix}: no rule id starts with "
                              "it (see repro lint --rules)")
    try:
        from repro.lint.cache import AnalysisCache, cached_check_paths
        report = cached_check_paths(
            args.targets, cache=AnalysisCache(enabled=not args.no_cache))
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from None
    except AnalyzerCrash as exc:
        # the analyzer itself broke: exit 2 naming the offending spot so
        # a bug in the checker is never mistaken for a clean tree
        print(f"lint: internal error in {exc.file}, "
              f"function {exc.function}: "
              f"{type(exc.cause).__name__}: {exc.cause}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, ImportError) as exc:
        # internal/environment failure, not a lint verdict: exit 2 so
        # callers can tell "findings" (1) from "the run itself broke"
        print(f"lint: internal error: {exc}", file=sys.stderr)
        return 2
    findings = list(report)
    if prefixes:
        findings = [f for f in findings if f.rule.startswith(prefixes)]
    from repro.lint.findings import Severity
    errors = [f for f in findings if f.severity is Severity.ERROR]
    warnings = [f for f in findings if f.severity is Severity.WARNING]
    if args.format == "sarif":
        # stdout carries only the artifact; the human summary goes to
        # stderr so `repro lint --format sarif > findings.sarif` is clean
        from repro.lint.sarif import to_sarif
        print(to_sarif(findings), end="")
        print(f"{len(errors)} error(s), {len(warnings)} warning(s)",
              file=sys.stderr)
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(errors)} error(s), {len(warnings)} warning(s)")
    ok = not errors and not (args.strict and warnings)
    return 0 if ok else 1


def _cmd_guide(args: argparse.Namespace) -> int:
    """Emit a bwlint placement-guidance file for the given sources."""
    from repro.lint import AnalyzerCrash
    from repro.lint.guidance import build_guidance

    _check_out_dir("--output", args.output)
    try:
        guide = build_guidance(args.targets or ["repro.apps"])
    except FileNotFoundError as exc:
        raise ConfigError(str(exc)) from None
    except AnalyzerCrash as exc:
        print(f"guide: internal error in {exc.file}, "
              f"function {exc.function}: "
              f"{type(exc.cause).__name__}: {exc.cause}", file=sys.stderr)
        return 2
    if args.phases:
        from repro.lint.guidance import render_timeline
        print(render_timeline(guide), end="")
        return 0
    if args.output:
        guide.write(args.output)
        print(f"guidance for {len(guide.sites)} site(s) written to "
              f"{args.output} (sha256 {guide.identity()[:16]})",
              file=sys.stderr)
    else:
        print(guide.dumps(), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Replicated figure sweep with stats, tables and an HTML report."""
    from repro.exec import ResultCache, run_specs
    from repro.obs.report import (assemble_sweep, render_report_html,
                                  replicate_specs)

    scale = _SCALES[args.scale]
    names = _figure_names(args)
    _check_count("--replicates", args.replicates)
    _check_count("--jobs", args.jobs)
    _check_out_dir("--out", args.out)
    plans = [exps.PLANS[name](scale) for name in names]
    specs = replicate_specs(plans, args.replicates)
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    results = run_specs(specs, jobs=args.jobs, cache=cache,
                        progress=_progress_line)
    failed = [r for r in results if not r.ok]
    if failed:
        for r in failed:
            print(f"report: {r.spec.display()}: {r.error}", file=sys.stderr)
        return 1
    figures = assemble_sweep(plans, args.replicates,
                             [r.result for r in results],
                             baseline=args.baseline)
    for fig in figures:
        print(fig.render())
        print()
    html = render_report_html(
        figures, title=f"repro experiment report — {', '.join(names)} "
                       f"({args.scale} scale)")
    with open(args.out, "w") as fh:
        fh.write(html)
    print(f"report ({len(figures)} figure(s), {args.replicates} "
          f"replicate(s)) written to {args.out}", file=sys.stderr)
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    """Every strategy × every app, replicated, ranked, one HTML report."""
    from repro.bench.leaderboard import (LEADERBOARD_APPS, leaderboard_plans,
                                         rank_figures, render_leaderboard)
    from repro.exec import ResultCache, run_specs
    from repro.obs.report import (assemble_sweep, render_report_html,
                                  replicate_specs)

    scale = _SCALES[args.scale]
    apps = list(args.apps or LEADERBOARD_APPS)
    unknown = sorted(set(apps) - set(LEADERBOARD_APPS))
    if unknown:
        raise ConfigError(f"unknown app(s) {unknown}; "
                          f"choose from {sorted(LEADERBOARD_APPS)}")
    _check_count("--replicates", args.replicates)
    _check_count("--jobs", args.jobs)
    _check_out_dir("--out", args.out)
    strategies = sorted(args.strategies or STRATEGIES)
    if args.baseline is not None and args.baseline not in strategies:
        print(f"baseline {args.baseline!r} is not among the swept "
              f"strategies {strategies}", file=sys.stderr)
        return 2
    plans = leaderboard_plans(scale, apps=apps, strategies=strategies,
                              iterations=args.iterations)
    specs = replicate_specs(plans, args.replicates)
    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    results = run_specs(specs, jobs=args.jobs, cache=cache,
                        progress=_progress_line)
    failed = [r for r in results if not r.ok]
    if failed:
        for r in failed:
            print(f"leaderboard: {r.spec.display()}: {r.error}",
                  file=sys.stderr)
        return 1
    figures = assemble_sweep(plans, args.replicates,
                             [r.result for r in results],
                             baseline=args.baseline)
    summary = rank_figures(figures)
    print(render_leaderboard(summary, figures))
    if args.out:
        html = render_report_html(
            [summary, *figures],
            title=f"repro strategy leaderboard — {', '.join(apps)} "
                  f"({args.scale} scale)")
        with open(args.out, "w") as fh:
            fh.write(html)
        print(f"leaderboard ({len(strategies)} strategies, {len(apps)} "
              f"app(s), {args.replicates} replicate(s)) written to "
              f"{args.out}", file=sys.stderr)
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    """Append to / render the BENCH trend history."""
    from pathlib import Path

    from repro.obs import trend as obs_trend

    history = Path(args.history) if args.history else None
    if args.action == "append":
        # a commit is recorded once, so a made-up id would swallow the
        # next append's snapshots
        commit = args.commit
        if not commit:
            raise ConfigError("trend append needs --commit SHA, the commit "
                              "the BENCH_*.json snapshots belong to")
        record = obs_trend.append_history(commit, path=history)
        if record is None:
            print(f"trend: nothing appended for {commit} (already "
                  "recorded, or no BENCH_*.json found)", file=sys.stderr)
        else:
            print(f"trend: recorded {len(record['benches'])} bench "
                  f"snapshot(s) for {commit}")
        return 0
    if history is not None and not history.is_file():
        raise ConfigError(f"--history {args.history}: no such file")
    _check_out_dir("--out", args.out)
    records = obs_trend.load_history(history)
    with open(args.out, "w") as fh:
        fh.write(obs_trend.render_trend_html(records))
    print(f"trend dashboard ({len(records)} commit(s)) written to "
          f"{args.out}", file=sys.stderr)
    return 0


def _cmd_race(args: argparse.Namespace) -> int:
    schedules, seed, limit = args.explore_schedules, args.seed, args.limit
    _check_count("--explore-schedules", schedules, 0)
    if limit is not None:
        if seed is None:
            raise ConfigError(f"--limit {limit} needs --seed")
        _check_count("--limit", limit, 0)
    params = _app_params(args, args.app)
    from repro.race import app_runner, explore, run_schedule

    if not schedules:
        # one schedule under racesan+simsan: FIFO, or a (seed, limit) replay
        return _print_outcome(run_schedule(app_runner(args.app, params),
                                           seed, limit=limit))
    _check_count("--jobs", args.jobs)
    report = explore(args.app, params, schedules=schedules,
                     base_seed=seed or 0, jobs=args.jobs)
    print(report.render())
    return 1 if report.failing else 0


def main(argv: _t.Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    parser = _Parser(
        prog="repro",
        description="Memory heterogeneity-aware runtime system "
                    "(IPDPSW 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="regenerate paper figures")
    p_exp.add_argument("--figures", nargs="*", metavar="FIG",
                       help="subset, e.g. fig1 fig8 (default: all)")
    p_exp.add_argument("--all", action="store_true",
                       help="run every figure (the default when --figures "
                            "is omitted)")
    p_exp.add_argument("--scale", default="small", choices=sorted(_SCALES))
    p_exp.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the simulation runs "
                            "(default 1 = in-process serial)")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="run everything fresh, bypassing .repro-cache/")
    p_exp.add_argument("--cache-stats", action="store_true",
                       help="print cache hit/miss counts to stderr")
    p_exp.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: .repro-cache/ at the "
                            "repo root)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="cache location (default: .repro-cache/ at "
                              "the repo root)")
    p_cache.set_defaults(func=_cmd_cache)

    p_st = sub.add_parser("stencil", help="run Stencil3D once")
    _add_machine_args(p_st)
    _add_shape_args(p_st, ["stencil"], total="2GiB", block="4MiB",
                    iterations=5)
    p_st.set_defaults(func=_cmd_app)

    p_mm = sub.add_parser("matmul", help="run blocked MatMul once")
    _add_machine_args(p_mm)
    _add_shape_args(p_mm, ["matmul"], working_set="1.5GiB", block_dim=96)
    p_mm.set_defaults(func=_cmd_app)

    p_sp = sub.add_parser("spmv", help="run iterated SpMV once")
    _add_machine_args(p_sp)
    _add_shape_args(p_sp, ["spmv"], block_rows=64, block_bytes="8MiB",
                    vector_bytes="256KiB", couplings=3, iterations=5, seed=0)
    p_sp.set_defaults(func=_cmd_app)

    p_sm = sub.add_parser("stream", help="STREAM bandwidth table (Fig 1)")
    p_sm.add_argument("--threads", type=int, default=64)
    p_sm.add_argument("--sanitize", action="store_true",
                      help="run under the repro.lint runtime sanitizer")
    p_sm.set_defaults(func=_cmd_stream)

    p_mx = sub.add_parser(
        "metrics", help="run one app under the telemetry subsystem")
    _add_machine_args(p_mx, checks=False)
    p_mx.add_argument("--app", default="stencil", choices=list(APPS))
    p_mx.add_argument("--watch", action="store_true",
                      help="narrate flight-recorder snapshot deltas live")
    _add_shape_args(p_mx, list(APPS), total="512MiB", block="8MiB",
                    iterations=3, working_set="256MiB", block_dim=96,
                    block_rows=32, block_bytes="8MiB", vector_bytes="256KiB",
                    couplings=3, seed=0, array_bytes="4MiB", chares=64,
                    repeats=2)
    p_mx.set_defaults(func=_cmd_app, metrics=True)

    p_lint = sub.add_parser(
        "lint", help="check dependence declarations statically")
    p_lint.add_argument("targets", nargs="*", metavar="TARGET",
                        help="files, directories or importable module names")
    p_lint.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    p_lint.add_argument("--rules", action="store_true",
                        help="print the rule catalog and exit")
    p_lint.add_argument("--select", action="append", metavar="PREFIX",
                        help="only report rules whose id starts with PREFIX; "
                             "repeat for several (e.g. --select REP1 "
                             "--select REP3)")
    p_lint.add_argument("--format", default="text",
                        choices=["text", "sarif"],
                        help="findings output: human text (default) or a "
                             "canonical SARIF 2.1.0 document on stdout")
    p_lint.add_argument("--no-cache", action="store_true",
                        help="re-analyze even when a warm .repro-cache/ "
                             "entry exists for these targets")
    p_lint.set_defaults(func=_cmd_lint)

    p_guide = sub.add_parser(
        "guide", help="emit a bwlint placement-guidance file")
    p_guide.add_argument("targets", nargs="*", metavar="TARGET",
                         help="files, directories or importable module "
                              "names (default: repro.apps)")
    p_guide.add_argument("-o", "--output", metavar="PATH",
                         help="write here instead of stdout")
    p_guide.add_argument("--phases", action="store_true",
                         help="print the phase timeline (deterministic "
                              "human-readable render) instead of the JSON")
    p_guide.set_defaults(func=_cmd_guide)

    p_race = sub.add_parser(
        "race", help="race detector / schedule explorer")
    race_apps = ["stencil", "matmul", "spmv"]
    p_race.add_argument("--app", default="stencil", choices=race_apps)
    p_race.add_argument("--strategy", default="multi-io",
                        choices=sorted(STRATEGIES))
    p_race.add_argument("--cores", type=int, default=8)
    p_race.add_argument("--mcdram", type=_size, default="128MiB")
    p_race.add_argument("--ddr", type=_size, default="1GiB")
    p_race.add_argument("--explore-schedules", type=int, default=0,
                        metavar="N",
                        help="number of seeded schedule permutations "
                             "(0 = one FIFO run under racesan)")
    p_race.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes for seed exploration "
                             "(with --explore-schedules)")
    p_race.add_argument("--seed", type=int, default=None,
                        help="base seed (with --explore-schedules) or "
                             "single-schedule replay seed")
    p_race.add_argument("--limit", type=int, default=None,
                        help="decision limit of a minimized replay token")
    _add_shape_args(p_race, race_apps, total="256MiB", block="16MiB",
                    iterations=1, working_set="128MiB", block_dim=64,
                    block_rows=16, block_bytes="8MiB", vector_bytes="256KiB",
                    couplings=2, seed=0)
    p_race.set_defaults(func=_cmd_race)

    p_rep = sub.add_parser(
        "report", help="replicated figure sweep with stats + HTML report")
    p_rep.add_argument("--figures", nargs="*", metavar="FIG",
                       help="subset, e.g. fig2 fig8 (default: all)")
    p_rep.add_argument("--all", action="store_true",
                       help="run every figure (the default when --figures "
                            "is omitted)")
    p_rep.add_argument("--scale", default="small", choices=sorted(_SCALES))
    p_rep.add_argument("--replicates", type=int, default=3, metavar="N",
                       help="seeded schedule replicates per configuration "
                            "(default 3)")
    p_rep.add_argument("--baseline", default=None, metavar="SERIES",
                       help="series label to t-test the others against "
                            "(e.g. 'Single IO thread')")
    p_rep.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the simulation runs")
    p_rep.add_argument("-o", "--out", default="report.html", metavar="PATH",
                       help="HTML report path (default report.html)")
    p_rep.add_argument("--no-cache", action="store_true",
                       help="run everything fresh, bypassing .repro-cache/")
    p_rep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache location (default: .repro-cache/ at the "
                            "repo root)")
    p_rep.set_defaults(func=_cmd_report)

    p_lb = sub.add_parser(
        "leaderboard", help="rank every strategy across every app "
                            "(replicated sweep + HTML report)")
    p_lb.add_argument("--apps", nargs="*", metavar="APP",
                      help="subset of apps (default: stencil matmul "
                           "spmv stream)")
    p_lb.add_argument("--strategies", nargs="*", metavar="NAME",
                      choices=sorted(STRATEGIES),
                      help="subset of strategies (default: all)")
    p_lb.add_argument("--scale", default="small", choices=sorted(_SCALES))
    p_lb.add_argument("--iterations", type=int, default=3,
                      help="app iterations per run (stencil/spmv)")
    p_lb.add_argument("--replicates", type=int, default=3, metavar="N",
                      help="seeded schedule replicates per cell "
                           "(default 3)")
    p_lb.add_argument("--baseline", default=None, metavar="STRATEGY",
                      help="strategy to Welch-t-test the others against "
                           "(e.g. multi-io)")
    p_lb.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the simulation runs")
    p_lb.add_argument("-o", "--out", default="leaderboard.html",
                      metavar="PATH",
                      help="HTML report path (default leaderboard.html; "
                           "'' disables)")
    p_lb.add_argument("--no-cache", action="store_true",
                      help="run everything fresh, bypassing .repro-cache/")
    p_lb.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="cache location (default: .repro-cache/ at the "
                           "repo root)")
    p_lb.set_defaults(func=_cmd_leaderboard)

    p_tr = sub.add_parser(
        "trend", help="BENCH_*.json trend history + sparkline dashboard")
    p_tr.add_argument("action", choices=["append", "render"])
    p_tr.add_argument("--commit", default=None, metavar="SHA",
                      help="commit id for 'append' (required there)")
    p_tr.add_argument("--history", default=None, metavar="PATH",
                      help="history file (default: bench_history.jsonl at "
                           "the repo root)")
    p_tr.add_argument("-o", "--out", default="trend.html", metavar="PATH",
                      help="HTML dashboard path for 'render' "
                           "(default trend.html)")
    p_tr.set_defaults(func=_cmd_trend)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
