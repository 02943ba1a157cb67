"""The push-path metrics subscriber the tests hold the log fold to.

:class:`MetricsSubscriber` is an ordinary probe subscriber (see
:mod:`repro.hooks`) that updates every *pushed* instrument the moment
its event fires.  :class:`repro.metrics.MetricsSession` computes the
same instruments by folding the run's recorder log at each snapshot;
subscribe this next to a session (sharing its clock and polled gauges)
and the two registries must export byte-identical text.

Latencies are measured on the registry clock, which drivers wire to the
simulation clock (``lambda: env.now``).  The per-move and per-fetch
points cache their instrument children by label key; children are still
created on first use, so a family nothing touched stays absent from the
registry.
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.metrics.registry import MetricsRegistry

__all__ = ["MetricsSubscriber"]


class MetricsSubscriber:
    """Turns probe notifications into updates of one registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        #: label key -> the instrument children one event updates
        self._children: dict[tuple, tuple] = {}
        #: lane -> its issued-fetches counter
        self._issued: dict[str, _t.Any] = {}
        self._inflight: _t.Any = None
        self._hbm_used: _t.Any = None

    def subscribe(self) -> "MetricsSubscriber":
        _probe.subscribe(self)
        return self

    def unsubscribe(self) -> None:
        _probe.unsubscribe(self)

    # -- data mover and allocators ------------------------------------------

    def _moves_inflight(self) -> _t.Any:
        gauge = self._inflight
        if gauge is None:
            gauge = self._inflight = self.registry.gauge(
                "repro_moves_inflight", "block moves currently in flight")
        return gauge

    def on_move_start(self, block: _t.Any, src: _t.Any, dst: _t.Any) -> None:
        self._moves_inflight().inc()

    def on_move_rollback(self, block: _t.Any, src: _t.Any,
                         dst: _t.Any) -> None:
        self._moves_inflight().dec()
        self.registry.counter("repro_move_rollbacks_total",
                              "moves rolled back on fragmented destination",
                              src=src.name, dst=dst.name).inc()

    def on_move_end(self, block: _t.Any, src: _t.Any, dst: _t.Any,
                    nbytes: int, started: float) -> None:
        reg = self.registry
        key = ("move", src, dst)
        children = self._children.get(key)
        if children is None:
            labels = {"src": src.name, "dst": dst.name}
            children = self._children[key] = (
                reg.counter("repro_moves_total", "completed block moves",
                            **labels),
                reg.counter("repro_moved_bytes_total",
                            "bytes moved per direction", **labels),
                reg.histogram("repro_move_latency_seconds",
                              "end-to-end alloc+copy+free move latency",
                              **labels))
        moves, moved, latency = children
        self._moves_inflight().dec()
        moves.inc()
        moved.inc(nbytes)
        latency.observe(reg.clock() - started)

    def on_alloc_failure(self, allocator: _t.Any, nbytes: int) -> None:
        self.registry.counter("repro_alloc_failures_total",
                              "allocations rejected for lack of capacity",
                              device=allocator.name).inc()

    # -- strategy fetch / evict ----------------------------------------------

    def on_fetch_hit(self, block: _t.Any, lane: str) -> None:
        self.registry.counter("repro_prefetch_hits_total",
                              "fetch requests satisfied by residency",
                              lane=lane).inc()

    def on_fetch_joined(self, block: _t.Any, lane: str) -> None:
        self.registry.counter("repro_prefetch_joined_total",
                              "fetch requests joined to an in-flight move",
                              lane=lane).inc()

    def on_fetch_issued(self, block: _t.Any, lane: str) -> None:
        counter = self._issued.get(lane)
        if counter is None:
            counter = self._issued[lane] = self.registry.counter(
                "repro_prefetch_issued_total", "block fetches started",
                lane=lane)
        counter.inc()

    def on_fetch_canceled(self, block: _t.Any, lane: str) -> None:
        self.registry.counter("repro_prefetch_canceled_total",
                              "fetches abandoned (no space / fragmentation)",
                              lane=lane).inc()

    def on_fetch(self, block: _t.Any, lane: str, category: _t.Any,
                 started: float, now: float) -> None:
        key = ("fetch", lane)
        children = self._children.get(key)
        if children is None:
            reg = self.registry
            children = self._children[key] = (
                reg.counter("repro_fetched_bytes_total",
                            "bytes fetched into HBM", lane=lane),
                reg.histogram("repro_fetch_latency_seconds",
                              "reserve-to-resident fetch latency",
                              lane=lane))
        fetched, latency = children
        fetched.inc(block.nbytes)
        latency.observe(now - started)

    def on_evict(self, block: _t.Any, lane: str, category: _t.Any,
                 started: float, now: float, reason: str) -> None:
        key = ("evict", reason)
        children = self._children.get(key)
        if children is None:
            reg = self.registry
            children = self._children[key] = (
                reg.counter("repro_evictions_total",
                            "blocks evicted to DDR by cause", reason=reason),
                reg.counter("repro_evicted_bytes_total",
                            "bytes evicted to DDR by cause", reason=reason),
                reg.histogram("repro_evict_latency_seconds",
                              "eviction move latency"))
        evictions, evicted, latency = children
        evictions.inc()
        evicted.inc(block.nbytes)
        latency.observe(now - started)

    # -- manager ----------------------------------------------------------------

    def on_inflight_end(self, hbm_used: int) -> None:
        # sampled at exactly the manager's occupancy-log points, so the
        # gauge's high-water mark agrees with occupancy_stats' peak
        gauge = self._hbm_used
        if gauge is None:
            gauge = self._hbm_used = self.registry.gauge(
                "repro_hbm_used_bytes", "HBM bytes in use at move completions")
        gauge.set(hbm_used)
