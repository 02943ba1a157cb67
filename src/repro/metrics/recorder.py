"""The flight recorder: periodic registry snapshots on the sim clock.

A :class:`FlightRecorder` collects a flat ``{series: value}`` mapping (a
registry's ``flatten``, after the session's fold) every ``cadence``
simulated seconds into a ring buffer (old snapshots fall off — it is a
*flight* recorder, not an archive).
The snapshot stream drives:

* the end-of-run report and JSON/Prometheus exports
  (:mod:`repro.metrics.export`);
* Chrome-trace counter ("C") events merged into
  :func:`repro.trace.export.to_json`, so Perfetto shows queue depth and
  HBM occupancy alongside task intervals;
* live run narration (``repro metrics --watch``) via the ``on_snapshot``
  callback, which receives each new snapshot and its predecessor.

Each tick is a daemon timeout
(:meth:`~repro.sim.environment.Environment.daemon_timeout`) whose
callback takes the snapshot and arms the next tick; no simulated process
is involved.  A run that would end, or deadlock, unobserved ends the same
way with a recorder attached, at the same instant, with the same waiting
processes.
"""

from __future__ import annotations

import typing as _t
from collections import deque

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event

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
        #: the armed cadence tick, else None
        self._tick: Event | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FlightRecorder":
        """Take the t=0 snapshot and arm the first cadence tick."""
        if self._tick is not None or self.stopped_at is not None:
            raise SimulationError("flight recorder already started")
        self.snapshot()
        self._arm()
        return self

    def _arm(self) -> None:
        # daemon ticks: the recorder never keeps a run going on its own
        self._tick = self.env.daemon_timeout(self.cadence)
        self._tick.add_callback(self._on_tick)

    def _on_tick(self, _event: Event) -> None:
        self.snapshot()
        if self.stopped_at is None:  # an on_snapshot callback may stop us
            self._arm()

    def stop(self) -> None:
        """Final snapshot, then cancel the pending tick (idempotent)."""
        if self.stopped_at is not None:
            return
        self.stopped_at = self.env.now
        if self._tick is not None:
            self.env.cancel(self._tick)
            self._tick = None
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
