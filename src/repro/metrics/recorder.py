"""The flight recorder: periodic registry snapshots on the sim clock.

A :class:`FlightRecorder` spawns one simulated process that collects a
flat ``{series: value}`` mapping (a registry's ``flatten``, after the
session's fold) every ``cadence`` simulated seconds into a ring buffer
(old snapshots fall off — it is a *flight* recorder, not an archive).
The snapshot stream drives:

* the end-of-run report and JSON/Prometheus exports
  (:mod:`repro.metrics.export`);
* Chrome-trace counter ("C") events merged into
  :func:`repro.trace.export.to_json`, so Perfetto shows queue depth and
  HBM occupancy alongside task intervals;
* live run narration (``repro metrics --watch``) via the ``on_snapshot``
  callback, which receives each new snapshot and its predecessor.

The cadence timeouts are daemon timeouts
(:meth:`~repro.sim.environment.Environment.daemon_timeout`): a run that
would end, or deadlock, unobserved ends the same way with a recorder
attached, at the same instant.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.sim.environment import Environment

__all__ = ["Snapshot", "FlightRecorder"]


class Snapshot(_t.NamedTuple):
    """One flattened registry state at one simulated instant."""

    time: float
    values: dict[str, float]

    def get(self, series: str, default: float = 0.0) -> float:
        return self.values.get(series, default)


#: snapshots the ring keeps; older ones fall off the front
CAPACITY = 1024

#: callback signature: (new snapshot, previous snapshot or None)
OnSnapshot = _t.Callable[[Snapshot, "Snapshot | None"], None]


class FlightRecorder:
    """Snapshots ``collect()`` every ``cadence`` sim-seconds into a ring."""

    def __init__(self, env: Environment,
                 collect: _t.Callable[[], dict[str, float]], *,
                 cadence: float = 0.05,
                 on_snapshot: OnSnapshot | None = None):
        if cadence <= 0:
            raise SimulationError(f"cadence must be > 0, got {cadence}")
        self.env = env
        self.collect = collect
        self.cadence = cadence
        self.on_snapshot = on_snapshot
        self.snapshots: deque[Snapshot] = deque(maxlen=CAPACITY)
        self.snapshots_taken = 0
        self.stopped_at: float | None = None
        self._process: _t.Any = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FlightRecorder":
        """Take the t=0 snapshot and spawn the cadence process."""
        if self._process is not None:
            raise SimulationError("flight recorder already started")
        self.snapshot()
        self._process = self.env.process(self._main(), name="flight-recorder")
        return self

    def _main(self) -> _t.Generator:
        # daemon ticks: the recorder never keeps a run going on its own
        while True:
            yield self.env.daemon_timeout(self.cadence)
            self.snapshot()

    def stop(self) -> None:
        """Final snapshot, then retire the cadence process (idempotent)."""
        if self.stopped_at is not None:
            return
        self.stopped_at = self.env.now
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("flight recorder stopped")
        self.snapshot()

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Take one snapshot now (also usable between cadence ticks)."""
        previous = self.snapshots[-1] if self.snapshots else None
        snap = Snapshot(self.env.now, self.collect())
        self.snapshots.append(snap)
        self.snapshots_taken += 1
        if self.on_snapshot is not None:
            self.on_snapshot(snap, previous)
        return snap
