"""One-call wiring: registry + binding + recorder fold + flight recorder.

The drivers' (CLI, benches, tests) entire metrics lifecycle::

    session = MetricsSession(built, app="stencil", cadence=0.02)
    result = app.run()
    session.finish()
    print(render_report(session.registry, session.recorder))

A session holds the run's one recorder (:class:`repro.trace.Tracer`),
sharing the one already subscribed on the environment or installing
one.  Every *pushed* instrument is a fold over its log: at each
flight-recorder snapshot, and at ``finish``, the records logged since
the last fold update the registry in log order, each at its logged
time, and then the registry is flattened (DESIGN.md §16).  ``finish``
is idempotent and always releases the recorder, so a crashed run cannot
leak into the next one; the session is also a context manager.
"""

from __future__ import annotations

import typing as _t

from repro.metrics.bind import bind_built_runtime
from repro.metrics.recorder import FlightRecorder, OnSnapshot
from repro.metrics.registry import MetricsRegistry
from repro.trace.tracer import Tracer

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import BuiltRuntime

__all__ = ["MetricsSession"]

#: tally kind -> (counter family, help text, label name)
_TALLIES = {
    "hit": ("repro_prefetch_hits_total",
            "fetch requests satisfied by residency", "lane"),
    "joined": ("repro_prefetch_joined_total",
               "fetch requests joined to an in-flight move", "lane"),
    "issued": ("repro_prefetch_issued_total", "block fetches started",
               "lane"),
    "canceled": ("repro_prefetch_canceled_total",
                 "fetches abandoned (no space / fragmentation)", "lane"),
    "alloc_failure": ("repro_alloc_failures_total",
                      "allocations rejected for lack of capacity", "device"),
}


class MetricsSession:
    """Bound and recording from construction until ``finish``."""

    def __init__(self, built: "BuiltRuntime", *, app: str = "",
                 cadence: float = 0.05,
                 on_snapshot: OnSnapshot | None = None):
        clock = _ReplayClock(built.env)
        self.registry = MetricsRegistry(
            clock=clock.now, strategy=built.manager.strategy.name, app=app)
        bind_built_runtime(self.registry, built)
        self.tracer = Tracer(built.env).install(intervals=False)
        self.recorder = FlightRecorder(
            built.env, _Fold(self.registry, self.tracer, clock).collect,
            cadence=cadence, on_snapshot=on_snapshot)
        self.recorder.start()

    def finish(self) -> FlightRecorder:
        """Final snapshot, stop the flight recorder, release the log."""
        try:
            self.recorder.stop()
        finally:
            self.tracer.uninstall()
        return self.recorder

    def __enter__(self) -> "MetricsSession":
        return self

    def __exit__(self, *exc: _t.Any) -> None:
        self.finish()


class _ReplayClock:
    """The registry clock: simulated time, or while the fold replays a
    record, the time that record was logged."""

    __slots__ = ("env", "at")

    def __init__(self, env: _t.Any):
        self.env = env
        self.at: float | None = None

    def now(self) -> float:
        return self.env.now if self.at is None else self.at


class _Fold:
    """Folds a recorder's log into the pushed instruments of a registry."""

    def __init__(self, registry: MetricsRegistry, log: Tracer,
                 clock: _ReplayClock):
        self.registry, self.log, self.clock = registry, log, clock
        #: how far each of the log's four lists has been folded
        self._folded = (0, 0, 0, 0)
        #: record key -> the instrument(s) that record updates
        self._children: dict[tuple, _t.Any] = {}

    def collect(self) -> dict[str, float]:
        """Fold the records logged since the last call, then flatten."""
        log = self.log
        lists = (log.events, log.occupancy, log.moves, log.tallies)
        done, self._folded = self._folded, tuple(map(len, lists))
        events, occupancy, moves, tallies = (
            records[start:] for records, start in zip(lists, done))
        try:
            self._fold_intervals(events)
            self._fold_moves(occupancy, moves)
            children = self._children
            for key in tallies:
                if key not in children:
                    family, description, label = _TALLIES[key[0]]
                    children[key] = self.registry.counter(
                        family, description, **{label: key[1]})
                children[key].inc()
        finally:
            self.clock.at = None
        return self.registry.flatten()

    def _fold_intervals(self, events: list) -> None:
        # indexed, not unpacked: unpacking a tuple subclass is the slow path
        reg, children = self.registry, self._children
        for ev in events:
            nbytes, reason = ev[5], ev[6]
            if nbytes is None:          # an execute or a queue op
                continue
            key = ("fetch", ev[0]) if reason is None else ("evict", reason)
            child = children.get(key)
            if child is None:
                child = children[key] = (
                    (reg.counter("repro_fetched_bytes_total",
                                 "bytes fetched into HBM", lane=ev[0]),
                     reg.histogram("repro_fetch_latency_seconds",
                                   "reserve-to-resident fetch latency",
                                   lane=ev[0]))
                    if reason is None else
                    (reg.counter("repro_evicted_bytes_total",
                                 "bytes evicted to DDR by cause",
                                 reason=reason),
                     reg.histogram("repro_evict_latency_seconds",
                                   "eviction move latency"),
                     reg.counter("repro_evictions_total",
                                 "blocks evicted to DDR by cause",
                                 reason=reason)))
            child[0].inc(nbytes)
            child[1].observe(ev[3] - ev[2])
            if reason is not None:
                child[2].inc()

    def _fold_moves(self, occupancy: list, moves: list) -> None:
        reg, children, clock = self.registry, self._children, self.clock
        # HBM in use at the manager's occupancy-log points, so the
        # gauge's high-water mark agrees with occupancy_stats' peak
        hbm = children.get(("hbm",))
        for clock.at, used in occupancy:
            if hbm is None:
                hbm = children[("hbm",)] = reg.gauge(
                    "repro_hbm_used_bytes",
                    "HBM bytes in use at move completions")
            hbm.set(used)
        inflight = children.get(("inflight",))
        for record in moves:
            kind, clock.at = record[0], record[1]
            if inflight is None:
                inflight = children[("inflight",)] = reg.gauge(
                    "repro_moves_inflight", "block moves currently in flight")
            if kind == "start":
                inflight.inc()
                continue
            inflight.dec()
            src, dst = record[2], record[3]
            if kind == "rollback":
                reg.counter("repro_move_rollbacks_total",
                            "moves rolled back on fragmented destination",
                            src=src, dst=dst).inc()
                continue
            child = children.get(("move", src, dst))
            if child is None:
                child = children[("move", src, dst)] = (
                    reg.counter("repro_moves_total", "completed block moves",
                                src=src, dst=dst),
                    reg.counter("repro_moved_bytes_total",
                                "bytes moved per direction", src=src, dst=dst),
                    reg.histogram("repro_move_latency_seconds",
                                  "end-to-end alloc+copy+free move latency",
                                  src=src, dst=dst))
            child[0].inc()
            child[1].inc(record[4])
            child[2].observe(record[1] - record[5])
