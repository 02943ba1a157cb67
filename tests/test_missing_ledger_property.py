"""Property: every queued task's running ``missing`` count matches a
rescan of its blocks after every processed event.

``OOCTask.missing`` is updated incrementally by ``DataBlock.begin_move`` /
``settle``.  The oracle here recomputes it from scratch — the summed
``nbytes`` of the task's ``INDDR`` blocks — for every task registered as
demand, each time the event loop is about to process the next event (so
after each previous one), and once more when the run drains.  Runs cover
stencil, matmul and SpMV at tiny scale with HBM overflow (so fetches,
evictions and rollbacks all happen) under seeded tie-breakers.
"""

import pytest

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.spmv import SpMV, SpMVConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.mem.block import BlockState
from repro import hooks as _probe
from repro.race.explorer import SeededTieBreaker
from repro.sim.environment import Environment
from repro.units import GiB, MiB

STRATEGIES = ["no-io", "single-io", "multi-io", "phase-guided"]


class LedgerOracle:
    """Probe subscriber that checks the missing-bytes ledger per event."""

    def __init__(self, registry):
        self.registry = registry
        self.checks = 0
        self.tasks_seen: set[int] = set()

    def on_processing(self, _event):
        self.check()

    def check(self):
        queued = {}
        for block in self.registry:
            for task in block._pending.values():
                queued[task.tid] = task
        for task in queued.values():
            expected = sum(b.nbytes for b in task.blocks
                           if b.state is BlockState.INDDR)
            assert task.missing == expected, (
                f"task #{task.tid}: missing={task.missing}, "
                f"rescan={expected}")
        self.tasks_seen.update(queued)
        self.checks += 1


def _stencil(built, seed):
    Stencil3D(built, StencilConfig(total_bytes=256 * MiB,
                                   block_bytes=16 * MiB,
                                   iterations=2)).run()


def _matmul(built, seed):
    cfg = MatMulConfig.for_working_set(96 * MiB, block_dim=256)
    MatMul(built, cfg).run()


def _spmv(built, seed):
    SpMV(built, SpMVConfig(block_rows=12, block_bytes=8 * MiB,
                           vector_bytes=MiB, couplings=2, iterations=2,
                           seed=seed)).run()


APPS = {"stencil": _stencil, "matmul": _matmul, "spmv": _spmv}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_missing_matches_rescan_after_every_event(app, strategy, seed):
    env = Environment()
    env.set_tie_breaker(SeededTieBreaker(seed))
    built = OOCRuntimeBuilder(strategy, cores=8, mcdram_capacity=64 * MiB,
                              ddr_capacity=GiB, trace=False).build_into(env)
    oracle = LedgerOracle(built.manager.registry)
    _probe.subscribe(oracle)
    try:
        APPS[app](built, seed)
        env.run()
    finally:
        _probe.unsubscribe(oracle)
    oracle.check()
    summary = built.manager.summary()
    assert summary["tasks_completed"] == summary["tasks_intercepted"] > 0
    assert summary["fetches"] > 0
    assert oracle.tasks_seen and oracle.checks > 100
