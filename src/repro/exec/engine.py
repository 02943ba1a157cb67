"""The parallel scenario-execution engine.

``Engine.run(specs)`` takes a list of :class:`~repro.exec.spec.RunSpec`
and returns one :class:`RunResult` per input spec, **in input order** —
parallelism and caching never reorder results, which is what keeps
figure tables and ``BENCH_*.json`` digests byte-identical to a serial
run.  Internally:

1. duplicate specs (same content key) collapse to one execution whose
   result is shared;
2. cache hits are answered from ``.repro-cache/`` without running
   anything;
3. cache misses are ordered largest-expected-``cost`` first and fanned
   out over a ``ProcessPoolExecutor`` (``jobs > 1``) or run inline
   (``jobs <= 1`` — no pool, no fork);
4. a spec that raises inside a worker comes back as a structured error
   row (``ok=False`` with the traceback); a worker that dies outright
   (``BrokenProcessPool``) gets its specs retried inline once;
5. fresh successes are written back to the cache.

A ``progress`` callback receives one dict per completion
(``done/total/spec/status/elapsed_s``) for live sweep narration.
"""

from __future__ import annotations

import dataclasses
import typing as _t
from concurrent import futures

from repro.exec.cache import ResultCache
from repro.exec.runners import execute_spec
from repro.exec.spec import RunSpec

__all__ = ["RunResult", "Engine", "run_specs"]

#: progress callback: one call per completed unique spec
ProgressFn = _t.Callable[[dict], None]


@dataclasses.dataclass
class RunResult:
    """Outcome of one spec: a result payload or a structured error."""

    spec: RunSpec
    ok: bool
    result: "dict | None" = None
    error: "str | None" = None
    traceback: str = ""
    elapsed_s: float = 0.0
    #: "cache", "inline" or "pool" — where the result came from
    source: str = "inline"

    @property
    def cached(self) -> bool:
        """True when the result was answered from the on-disk cache."""
        return self.source == "cache"


class Engine:
    """Fan specs out over workers, backed by the content cache."""

    def __init__(self, *, jobs: int = 1,
                 cache: "ResultCache | None" = None,
                 progress: "ProgressFn | None" = None):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress

    # -- internals ---------------------------------------------------------

    def _notify(self, done: int, total: int, spec: RunSpec,
                outcome: RunResult) -> None:
        if self.progress is None:
            return
        status = "cached" if outcome.cached else (
            "ok" if outcome.ok else "ERROR")
        self.progress({"done": done, "total": total, "spec": spec,
                       "status": status, "elapsed_s": outcome.elapsed_s})

    def _from_payload(self, spec: RunSpec, payload: dict,
                      source: str) -> RunResult:
        if payload.get("ok"):
            return RunResult(spec=spec, ok=True,
                             result=payload["result"],
                             elapsed_s=payload.get("elapsed_s", 0.0),
                             source=source)
        return RunResult(spec=spec, ok=False,
                         error=payload.get("error", "unknown error"),
                         traceback=payload.get("traceback", ""),
                         elapsed_s=payload.get("elapsed_s", 0.0),
                         source=source)

    def _run_inline(self, spec: RunSpec) -> RunResult:
        return self._from_payload(spec, execute_spec(
            {"kind": spec.kind, "params": dict(spec.params)}), "inline")

    def _run_pool(self, ordered: "list[RunSpec]",
                  on_done: _t.Callable[[RunSpec, RunResult], None]) -> None:
        """Fan ``ordered`` (largest first) over a process pool."""
        workers = min(self.jobs, len(ordered))
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            pending = {
                pool.submit(execute_spec, {"kind": spec.kind,
                                           "params": dict(spec.params)}): spec
                for spec in ordered
            }
            for future in futures.as_completed(pending):
                spec = pending[future]
                try:
                    outcome = self._from_payload(spec, future.result(),
                                                 "pool")
                except futures.process.BrokenProcessPool:
                    # the worker died under this spec (OOM kill, segfault
                    # in an extension): the pool is unusable, but the
                    # sweep is not — retry everything unfinished inline
                    raise
                except Exception as exc:  # noqa: BLE001 - pickling etc.
                    outcome = RunResult(
                        spec=spec, ok=False, source="pool",
                        error=f"{type(exc).__name__}: {exc}")
                on_done(spec, outcome)

    # -- public ------------------------------------------------------------

    def run(self, specs: _t.Sequence[RunSpec]) -> list[RunResult]:
        """Execute every spec; results align 1:1 with the input order."""
        keys = [spec.key() for spec in specs]
        unique: dict[str, RunSpec] = {}
        for key, spec in zip(keys, specs):
            unique.setdefault(key, spec)

        outcomes: dict[str, RunResult] = {}
        total = len(unique)
        done = 0

        def record(spec: RunSpec, outcome: RunResult) -> None:
            nonlocal done
            outcomes[spec.key()] = outcome
            if (self.cache is not None and outcome.ok
                    and not outcome.cached):
                self.cache.put(spec, outcome.result,
                               elapsed_s=outcome.elapsed_s)
            done += 1
            self._notify(done, total, spec, outcome)

        # 1) cache pass
        misses: list[RunSpec] = []
        for key, spec in unique.items():
            entry = self.cache.get(spec) if self.cache is not None else None
            if entry is not None:
                record(spec, RunResult(
                    spec=spec, ok=True, result=entry["result"],
                    elapsed_s=entry.get("elapsed_s", 0.0), source="cache"))
            else:
                misses.append(spec)

        # 2) largest-expected-cost-first, deterministic tie-break by key
        misses.sort(key=lambda s: (-s.cost, s.key()))

        # 3) execute
        if misses:
            if self.jobs <= 1 or len(misses) == 1:
                for spec in misses:
                    record(spec, self._run_inline(spec))
            else:
                try:
                    self._run_pool(misses, record)
                except (futures.process.BrokenProcessPool, OSError):
                    # pool (or a worker) died: finish the sweep serially
                    for spec in misses:
                        if spec.key() not in outcomes:
                            record(spec, self._run_inline(spec))

        return [outcomes[key] for key in keys]


def run_specs(specs: _t.Sequence[RunSpec], *, jobs: int = 1,
              cache: "ResultCache | None" = None,
              progress: "ProgressFn | None" = None) -> list[RunResult]:
    """One-call convenience over :class:`Engine`."""
    return Engine(jobs=jobs, cache=cache, progress=progress).run(specs)
