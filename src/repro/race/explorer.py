"""Deterministic schedule explorer: seeded same-instant ordering fuzzing.

The DES processes same-``(time, priority)`` events FIFO in scheduling
order.  Any code that is only correct *because* of that FIFO accident has
a schedule-dependent bug — the paper's runtime makes no such promise
(real IO threads and PEs race).  The explorer re-runs an application
across N permuted schedules:

* :class:`SeededTieBreaker` plugs into
  :meth:`repro.sim.environment.Environment.set_tie_breaker` and hands
  the event heap one int key ``jitter << 56 | seq`` per scheduled entry,
  where ``jitter`` is drawn from a seeded RNG — permuting only orders
  among same-instant, same-priority events; everything else is untouched
  and every run is a pure function of the seed.  The kernel drains that
  heap with :func:`repro.sim.kernel.drain_keyed`;
* the IO round-robin start offset (strategies with ``_rr_start``) is
  drawn from the same seed, permuting which PE the scan serves first;
* each schedule runs under ``racesan`` + ``simsan`` and is checked for
  deadlock (:class:`~repro.errors.DeadlockError`), crashes, races and
  invariant violations, plus a stuck-queue sweep at quiescence.

:func:`explore` is the one sweep: each seed is a ``schedule`` spec of the
:mod:`repro.exec` engine, run inline at ``jobs=1`` and over a process
pool above that, with the same report whatever ``jobs`` is.

A failing schedule is **minimized** by binary-searching the smallest
decision prefix that still fails: decisions past the ``limit`` fall back
to FIFO, so the replay token is just ``(seed, limit)`` — two runs of the
same token produce byte-identical outcomes.
"""

from __future__ import annotations

import dataclasses
import random
import typing as _t

from repro.errors import DeadlockError
from repro.lint.findings import Violation

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.race.detector import RaceFinding
    from repro.sim.environment import Environment

__all__ = ["SeededTieBreaker", "ScheduleOutcome", "ExplorationReport",
           "run_schedule", "minimize_schedule", "explore", "app_runner"]

#: a runner builds + runs one application inside the given environment and
#: returns the OOC manager (or None); ``rng`` seeds app-level ordering
#: choices such as the IO round-robin start
Runner = _t.Callable[["Environment", "random.Random | None"], _t.Any]


class SeededTieBreaker:
    """Draws the int heap keys ``jitter << 56 | seq`` (``seq`` = 0, 1, ...).

    ``jitter`` is a seeded draw in ``[1, 2**16]``, so keys sort exactly as
    the ``(jitter, seq)`` pairs they encode (``seq`` stays below
    ``2**56``), and they stay unique (``seq`` is the tiebreak of the
    tiebreak): the permutation is total and deterministic in the seed.
    With ``limit`` set, decisions beyond it get jitter 0, i.e. key
    ``seq`` — FIFO, and *ahead* of any jittered same-instant entry —
    which is what makes minimized replays stable: only the first
    ``limit`` decisions ever differ from FIFO, and they draw the same
    jitters whatever the limit.
    """

    def __init__(self, seed: int, limit: int | None = None):
        self.seed = seed
        self.limit = limit
        #: keys handed out so far
        self.decisions = 0
        self._rng = random.Random(seed)

    def keys(self) -> _t.Iterator[int]:
        """The endless key stream ``Environment.schedule`` draws from."""
        draw = self._rng.getrandbits
        limit = self.limit
        seq = 0
        while limit is None or seq < limit:
            self.decisions = seq + 1
            yield (draw(16) + 1) << 56 | seq
            seq += 1
        while True:
            self.decisions = seq + 1
            yield seq
            seq += 1


@dataclasses.dataclass
class ScheduleOutcome:
    """Everything one permuted run produced, replayable via (seed, limit)."""

    seed: int | None
    limit: int | None
    decisions: int
    error: str | None = None
    detail: str = ""
    race_findings: "list[RaceFinding]" = dataclasses.field(
        default_factory=list)
    san_violations: list[Violation] = dataclasses.field(default_factory=list)
    tasks_completed: int | None = None

    @property
    def failed(self) -> bool:
        return bool(self.error or self.race_findings or self.san_violations)

    def render(self) -> str:
        token = f"seed={self.seed}"
        if self.limit is not None:
            token += f" limit={self.limit}"
        if not self.failed:
            return f"{token}: ok ({self.decisions} decisions)"
        parts = []
        if self.error:
            parts.append(f"error={self.error}")
        if self.race_findings:
            parts.append(f"races={len(self.race_findings)}")
        if self.san_violations:
            parts.append(f"violations={len(self.san_violations)}")
        line = f"{token}: FAIL {' '.join(parts)}"
        if self.detail:
            line += f" — {self.detail}"
        return line


def run_schedule(runner: Runner, seed: int | None = None, *,
                 limit: int | None = None) -> ScheduleOutcome:
    """Run one schedule under racesan and simsan; ``seed=None`` keeps plain
    FIFO ordering."""
    from repro.lint import SimSanitizer
    from repro.race.detector import RaceSanitizer
    from repro.sim.environment import Environment

    env = Environment()
    breaker: SeededTieBreaker | None = None
    rng: random.Random | None = None
    if seed is not None:
        breaker = SeededTieBreaker(seed, limit)
        env.set_tie_breaker(breaker)
        rng = random.Random(seed ^ 0x5EED)
    racesan = RaceSanitizer().install(env)
    simsan = SimSanitizer(mode="record").install()
    error: str | None = None
    detail = ""
    manager: _t.Any = None
    try:
        try:
            manager = runner(env, rng)
            env.run()  # drain stragglers before the quiescence sweep
        except DeadlockError as exc:
            error, detail = "deadlock", str(exc)
        except Exception as exc:  # noqa: BLE001 - every crash is an outcome
            error, detail = type(exc).__name__, str(exc)
        if manager is not None and error is None:
            simsan.check_quiescent(manager)
    finally:
        racesan.uninstall()
        simsan.uninstall()
    outcome = ScheduleOutcome(
        seed=seed, limit=limit,
        decisions=breaker.decisions if breaker is not None else 0,
        error=error, detail=detail,
        race_findings=list(racesan.findings),
        san_violations=list(simsan.violations))
    if error == "deadlock":
        outcome.san_violations.append(Violation(
            rule="RACE303", message=detail, at=env.now))
    if manager is not None:
        try:
            outcome.tasks_completed = manager.summary().get("tasks_completed")
        except Exception:  # noqa: BLE001 - summary is best-effort
            outcome.tasks_completed = None
    env.close()
    return outcome


def minimize_schedule(runner: Runner,
                      outcome: ScheduleOutcome) -> ScheduleOutcome:
    """Binary-search the smallest decision prefix that still fails.

    Returns a failing outcome whose ``limit`` is minimal under the probe
    (failure need not be monotone in the prefix length, so this is a
    greedy approximation — but the returned token is always verified to
    fail, hence always a valid replay).
    """
    assert outcome.seed is not None, "cannot minimize a FIFO run"
    low, high = 0, max(outcome.decisions, 1)
    best = outcome
    while low < high:
        mid = (low + high) // 2
        probe = run_schedule(runner, outcome.seed, limit=mid)
        if probe.failed:
            best = probe
            high = mid
        else:
            low = mid + 1
    final = run_schedule(runner, outcome.seed, limit=low)
    return final if final.failed else best


@dataclasses.dataclass
class ExplorationReport:
    """Aggregate of one :func:`explore` sweep.

    ``rows`` holds one ``{"seed", "failed", "rendered"}`` dict per seed,
    in seed order; ``minimized`` is the locally re-run minimized first
    failure, if any schedule failed and its re-run failed too.
    """

    rows: list[dict]
    minimized: ScheduleOutcome | None = None

    @property
    def failing(self) -> list[dict]:
        """The rows whose schedule crashed, raced or violated."""
        return [row for row in self.rows if row["failed"]]

    def render(self) -> str:
        """One line per schedule, the failing count, then the minimized
        replay token and its first three findings of each kind."""
        out = [row["rendered"] for row in self.rows]
        out.append(f"explored {len(self.rows)} schedule(s): "
                   f"{len(self.failing)} failing")
        minimized = self.minimized
        if minimized is not None:
            out.append(
                f"minimized replay token: seed={minimized.seed} "
                f"limit={minimized.limit} "
                f"(re-run with --seed {minimized.seed} "
                f"--limit {minimized.limit})")
            shown = minimized.race_findings[:3] + minimized.san_violations[:3]
            out.extend(item.render() for item in shown)
        return "\n".join(out)


def explore(app: str, params: _t.Mapping[str, _t.Any], *, schedules: int,
            base_seed: int = 0, jobs: int = 1) -> ExplorationReport:
    """Run ``schedules`` seeded permutations of one app run; minimize the
    first failure.

    Every seed in ``[base_seed, base_seed + schedules)`` is one
    ``schedule`` :class:`~repro.exec.spec.RunSpec` carrying ``params``
    whole; :func:`repro.exec.run_specs` runs them inline at ``jobs=1``
    and over a process pool above that, and hands the rows back in seed
    order.  A spec whose executor raised (an engine error, not a
    schedule verdict) is a failing ``error=worker-error`` row.  The
    first failing seed is re-run and minimized here, on
    :func:`app_runner`, so the replay token and its findings are real
    outcomes.
    """
    from repro.exec import RunSpec, run_specs

    # builds the app config: a bad shape fails before any schedule runs
    runner = app_runner(app, params)
    seeds = range(base_seed, base_seed + schedules)
    specs = [RunSpec("schedule",
                     {"app": app, "seed": seed, "params": dict(params)})
             for seed in seeds]
    report = ExplorationReport(rows=[
        result.result if result.ok else
        {"seed": seed, "failed": True,
         "rendered": f"seed={seed}: FAIL error=worker-error — "
                     f"{result.error}"}
        for seed, result in zip(seeds, run_specs(specs, jobs=jobs))])
    if report.failing:
        first = run_schedule(runner, report.failing[0]["seed"])
        if first.failed:
            report.minimized = minimize_schedule(runner, first)
    return report


# -- the application runner ---------------------------------------------------


def _permute_io_order(strategy: _t.Any, rng: "random.Random | None") -> None:
    if rng is not None and isinstance(getattr(strategy, "_rr_start", None),
                                      int):
        strategy._rr_start = rng.randrange(1 << 10)


def app_runner(app: str, params: _t.Mapping[str, _t.Any]) -> Runner:
    """A runner for one :data:`repro.exec.apps.APPS` run from its params.

    The app config is built once, here, so a bad shape raises
    :class:`~repro.errors.ConfigError` before any schedule runs.
    ``params["strategy"]`` is a registry name, so every schedule builds
    a pristine strategy (replay determinism).
    """
    from repro.exec.apps import APPS, build

    entry = APPS[app]
    cfg = entry.config(params)

    def run(env: "Environment", rng: "random.Random | None") -> _t.Any:
        built = build(params, env)
        _permute_io_order(built.strategy, rng)
        entry.cls(built, cfg).run()
        return built.manager
    return run
