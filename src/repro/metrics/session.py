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

import collections
import typing as _t
from itertools import compress

from repro.metrics.bind import bind_built_runtime
from repro.metrics.instruments import Counter, Gauge, Histogram
from repro.metrics.recorder import FlightRecorder, OnSnapshot
from repro.metrics.registry import MetricsRegistry
from repro.trace.tracer import Log, Tracer

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

    def __init__(self, registry: MetricsRegistry, tracer: Tracer,
                 clock: _ReplayClock):
        self.registry, self.tracer, self.clock = registry, tracer, clock
        #: how far each of the log's four record kinds has been folded
        self._folded = (0, 0, 0, 0)
        #: record key -> the instrument(s) that record updates
        self._children: dict[tuple, _t.Any] = {}

    def collect(self) -> dict[str, float]:
        """Fold the records logged since the last call, then flatten."""
        log = self.tracer.log
        done, self._folded = self._folded, (
            len(log.lane), len(log.occ_time), len(log.move_kind),
            len(log.tally_kind))
        # every histogram's latencies of this fold, in log order, and
        # every counter's sum: counters add integers (event counts and
        # byte sizes), so one inc(total) equals the per-record incs
        latencies: dict[Histogram, list[float]] = collections.defaultdict(list)
        adds: dict[Counter, int] = collections.defaultdict(int)
        try:
            self._fold_intervals(log, done[0], latencies, adds)
            self._fold_moves(log, done[1], done[2], latencies, adds)
            children = self._children
            for key, n in collections.Counter(zip(
                    log.tally_kind[done[3]:],
                    log.tally_name[done[3]:])).items():
                counter = children.get(key)
                if counter is None:
                    family, description, label = _TALLIES[key[0]]
                    counter = children[key] = self.registry.counter(
                        family, description, **{label: key[1]})
                adds[counter] += n
        finally:
            self.clock.at = None
        for histogram, values in latencies.items():
            histogram.observe_all(values)
        for counter, total in adds.items():
            counter.inc(total)
        return self.registry.flatten()

    def _fold_intervals(self, log: Log, first: int,
                        latencies: dict[Histogram, list[float]],
                        adds: dict[Counter, int]) -> None:
        reg, children = self.registry, self._children
        lanes, starts, ends, reasons = log.lane, log.start, log.end, log.reason
        nbytes = log.nbytes
        # the fetches and evictions: the intervals that moved bytes
        for row in compress(range(first, len(nbytes)), nbytes[first:]):
            lane, reason = lanes[row], reasons[row]
            key = ("fetch", lane) if reason is None else ("evict", reason)
            child = children.get(key)
            if child is None:
                child = children[key] = (
                    (reg.counter("repro_fetched_bytes_total",
                                 "bytes fetched into HBM", lane=lane),
                     reg.histogram("repro_fetch_latency_seconds",
                                   "reserve-to-resident fetch latency",
                                   lane=lane))
                    if reason is None else
                    (reg.counter("repro_evicted_bytes_total",
                                 "bytes evicted to DDR by cause",
                                 reason=reason),
                     reg.histogram("repro_evict_latency_seconds",
                                   "eviction move latency"),
                     reg.counter("repro_evictions_total",
                                 "blocks evicted to DDR by cause",
                                 reason=reason)))
            adds[child[0]] += nbytes[row]
            latencies[child[1]].append(ends[row] - starts[row])
            if reason is not None:
                adds[child[2]] += 1

    def _gauge(self, key: str, when: float, name: str,
               description: str) -> Gauge:
        """The pushed gauge ``key``, made at ``when`` by its first record."""
        gauge = self._children.get((key,))
        if gauge is None:
            self.clock.at = when
            gauge = self._children[(key,)] = self.registry.gauge(
                name, description)
        return gauge

    def _fold_moves(self, log: Log, first_sample: int, first_move: int,
                    latencies: dict[Histogram, list[float]],
                    adds: dict[Counter, int]) -> None:
        # HBM in use at the manager's occupancy-log points, so the
        # gauge's high-water mark agrees with occupancy_stats' peak
        times = log.occ_time[first_sample:]
        if times:
            self._gauge("hbm", times[0], "repro_hbm_used_bytes",
                        "HBM bytes in use at move completions").replay(
                times, log.occ_used[first_sample:])
        times = log.move_time[first_move:]
        if not times:
            return
        reg, children = self.registry, self._children
        inflight = self._gauge("inflight", times[0], "repro_moves_inflight",
                               "block moves currently in flight")
        # the in-flight count after each record, as inc() and dec() step it
        level, levels = inflight.value, []
        for kind in log.move_kind[first_move:]:
            level = level + 1.0 if kind == "start" else level - 1.0
            levels.append(level)
        inflight.replay(times, levels)
        # the rollbacks and the ends: the records that name their devices
        srcs, dsts, nbytes = log.move_src, log.move_dst, log.move_nbytes
        for row in compress(range(first_move, len(srcs)), srcs[first_move:]):
            src, dst, moved = srcs[row], dsts[row], nbytes[row]
            if moved is None:
                adds[reg.counter(
                    "repro_move_rollbacks_total",
                    "moves rolled back on fragmented destination",
                    src=src, dst=dst)] += 1
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
            adds[child[0]] += 1
            adds[child[1]] += moved
            latencies[child[2]].append(log.move_time[row]
                                       - log.move_started[row])
