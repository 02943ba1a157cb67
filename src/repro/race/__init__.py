"""``repro.race`` — concurrency-correctness subsystem.

Three parts guard the runtime's concurrent migration decisions:

* :mod:`repro.race.detector` — "racesan", a vector-clock happens-before
  race detector subscribed to the runtime's probe points (rules
  ``RACE3xx``);
* :mod:`repro.race.model_checker` — a static placement-state model
  checker over the strategy/mover protocol classes (rules ``REP2xx``,
  also run by :func:`repro.lint.check_source`);
* :mod:`repro.race.explorer` — a seeded deterministic schedule explorer
  that permutes same-instant event orderings and replays/minimizes
  failing schedules.

Hot-path modules import only the probe (:mod:`repro.hooks`), which the
detector subscribes to; everything here loads lazily so race checking
costs nothing unless used.
"""

from __future__ import annotations

import typing as _t

__all__ = [
    "RaceAccess", "RaceFinding", "RaceSanitizer",
    "check_paths", "check_file", "check_source", "check_tree",
    "default_targets",
    "SeededTieBreaker", "ScheduleOutcome", "ExplorationReport",
    "run_schedule", "minimize_schedule", "explore", "app_runner",
]

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.race.detector import RaceAccess, RaceFinding, RaceSanitizer
    from repro.race.explorer import (ExplorationReport, ScheduleOutcome,
                                     SeededTieBreaker, app_runner, explore,
                                     minimize_schedule, run_schedule)
    from repro.race.model_checker import (check_file, check_paths,
                                          check_source, check_tree,
                                          default_targets)

#: lazy attribute -> defining submodule (keeps hook-site imports cheap and
#: avoids import cycles with repro.sim / repro.runtime)
_LAZY = {
    "RaceAccess": "repro.race.detector",
    "RaceFinding": "repro.race.detector",
    "RaceSanitizer": "repro.race.detector",
    "check_paths": "repro.race.model_checker",
    "check_file": "repro.race.model_checker",
    "check_source": "repro.race.model_checker",
    "check_tree": "repro.race.model_checker",
    "default_targets": "repro.race.model_checker",
    "SeededTieBreaker": "repro.race.explorer",
    "ScheduleOutcome": "repro.race.explorer",
    "ExplorationReport": "repro.race.explorer",
    "run_schedule": "repro.race.explorer",
    "minimize_schedule": "repro.race.explorer",
    "explore": "repro.race.explorer",
    "app_runner": "repro.race.explorer",
}


def __getattr__(name: str) -> _t.Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
