"""The recorder fold equals the push-path oracle, byte for byte.

:class:`repro.metrics.MetricsSession` computes every pushed instrument
by folding the run's recorder log at each flight-recorder snapshot.
:class:`tests.metrics_oracle.MetricsSubscriber` updates the same
instruments the moment each event fires.  Run both on one run, with the
oracle's registry bound to the same polled gauges and flattened at the
same snapshots, and every export must be identical: the Prometheus
text, the JSON instrument dump (values, high-water marks, time-weighted
means, percentiles) and every snapshot.
"""

from __future__ import annotations

import functools

import pytest

from repro import hooks as probe
from repro.core import api
from repro.exec.apps import APPS, build
from repro.machine.knl import build_knl
from repro.mem.allocator import FreeListAllocator
from repro.metrics import (MetricsRegistry, MetricsSession, Snapshot,
                           bind_built_runtime, to_json, to_prometheus)
from repro.errors import CapacityError
from repro.sim.environment import Environment
from repro.units import GiB, MiB
from tests.metrics_oracle import MetricsSubscriber

#: small shapes that still overflow HBM, so every strategy but naive
#: moves blocks and evicts
SHAPES = {
    "stencil": {"total": 128 * MiB, "block": 8 * MiB, "iterations": 2},
    "matmul": {"working_set": 64 * MiB, "block_dim": 64},
    "spmv": {"block_rows": 16, "block_bytes": 4 * MiB,
             "vector_bytes": 256 * 1024, "couplings": 3, "iterations": 2,
             "seed": 0},
    # no-io deadlocks on this stream shape with 64 MiB of HBM
    "stream": {"array_bytes": 4 * MiB, "chares": 16, "repeats": 2,
               "mcdram": 128 * MiB},
}


class Observed:
    """A metrics session and the push-path oracle on one built runtime."""

    def __init__(self, built: api.BuiltRuntime, app: str):
        env = built.env
        self.registry = MetricsRegistry(
            clock=lambda: env.now, strategy=built.manager.strategy.name,
            app=app)
        bind_built_runtime(self.registry, built)
        self.oracle = MetricsSubscriber(self.registry).subscribe()
        self.snapshots: list[Snapshot] = []
        self.session = MetricsSession(built, app=app, cadence=0.01,
                                      on_snapshot=self._snapshot)

    def _snapshot(self, snap: Snapshot, previous: Snapshot | None) -> None:
        self.snapshots.append(Snapshot(snap.time, self.registry.flatten()))

    def finish(self) -> None:
        try:
            self.session.finish()
        finally:
            self.oracle.unsubscribe()

    def assert_equal(self) -> None:
        folded = self.session.registry
        assert to_prometheus(folded) == to_prometheus(self.registry)
        assert to_json(folded) == to_json(self.registry)
        assert self.session.recorder.snapshots_taken == len(self.snapshots)
        assert list(self.session.recorder.snapshots) == self.snapshots


@pytest.mark.parametrize("strategy",
                         ["naive", "single-io", "no-io", "multi-io"])
@pytest.mark.parametrize("app", sorted(SHAPES))
def test_fold_equals_push_path(app, strategy):
    params = {"strategy": strategy, "cores": 8, "mcdram": 64 * MiB,
              "ddr": GiB, **SHAPES[app]}
    entry = APPS[app]
    built = build(params, Environment())
    observed = Observed(built, app)
    try:
        entry.cls(built, entry.config(params)).run()
    finally:
        observed.finish()
    if strategy != "naive":     # naive never moves a block
        assert observed.session.registry.total("repro_moves_total") > 0
    observed.assert_equal()
    assert all(getattr(probe, point) is None for point in probe.CATALOGUE)


def test_fold_equals_push_path_on_rollbacks(monkeypatch):
    """Allocation failures and both move kinds rolling back."""
    monkeypatch.setattr(api, "build_knl", functools.partial(
        build_knl, allocator_cls=FreeListAllocator))
    built = api.OOCRuntimeBuilder("multi-io", cores=2,
                                  mcdram_capacity=3 * MiB,
                                  ddr_capacity=GiB).build()
    node, env = built.machine, built.env
    observed = Observed(built, "mover")
    try:
        def place(name, nbytes, device):
            block = node.registry.declare(name, nbytes)
            node.topology.place_block(block, device)
            return block

        a = place("a", MiB, node.hbm)
        b = place("b", MiB, node.hbm)
        c = place("c", MiB, node.hbm)
        node.topology.release_block(a)
        node.topology.release_block(c)
        big = place("big", 2 * MiB - 4096, node.ddr)
        # two free MiB, not contiguous: both move kinds roll back
        for move in (node.mover.move, node.mover.move_migrate_pages):
            with pytest.raises(CapacityError):
                env.run(until=env.process(move(big, node.hbm)))
        env.run(until=env.process(node.mover.move(b, node.ddr)))
    finally:
        observed.finish()
    folded = observed.session.registry
    assert folded.total("repro_move_rollbacks_total") == 2
    assert folded.total("repro_alloc_failures_total") > 0
    observed.assert_equal()
