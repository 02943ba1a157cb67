"""repro.exec — parallel experiment engine with content-addressed caching.

The evaluation surface (paper figures, ablations, schedule
exploration) is a large set of independent simulation runs.  This
package makes that set *declarative* and *incremental*:

* :mod:`repro.exec.spec` — :class:`RunSpec`, the canonical description
  of one run (app, machine, strategy, seed, overrides) with a
  byte-stable JSON form and SHA-256 content key;
* :mod:`repro.exec.apps` — the app catalogue: how one params mapping
  becomes an app config, a built runtime and a result dict, shared by
  the executors, the schedule explorer and the CLI;
* :mod:`repro.exec.runners` — the executors that turn a spec into a
  result dict inside a worker process;
* :mod:`repro.exec.engine` — :class:`Engine`: dedup, cache lookup,
  largest-cost-first process-pool fan-out with per-spec crash
  isolation, deterministic merge back in spec order;
* :mod:`repro.exec.cache` — :class:`ResultCache`, the
  ``.repro-cache/`` store keyed by ``hash(spec)`` under a
  code-fingerprint generation, so editing one strategy only re-executes
  the affected figures;
* :mod:`repro.exec.fingerprint` — the source-tree hash that names
  cache generations;
* :mod:`repro.exec.explore` — parallel seed exploration for
  ``repro race --explore-schedules``.
"""

from repro.exec.cache import (ResultCache, cache_stats, clear_cache,
                              default_cache_root)
from repro.exec.engine import Engine, RunResult, run_specs
from repro.exec.explore import ParallelExplorationReport, parallel_explore
from repro.exec.fingerprint import code_fingerprint
from repro.exec.spec import RunSpec, canonical_json, stable_seed

__all__ = [
    "RunSpec", "canonical_json", "stable_seed",
    "code_fingerprint",
    "ResultCache", "default_cache_root", "cache_stats", "clear_cache",
    "Engine", "RunResult", "run_specs",
    "ParallelExplorationReport", "parallel_explore",
]
