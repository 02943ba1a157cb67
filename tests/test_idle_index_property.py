"""Property: the HBM idle index, and everything that reads it, agrees with
a full rescan of the block registry after every processed event.

``MemoryDevice.idle_blocks`` is updated incrementally by
``DataBlock.retain`` / ``release`` / ``begin_move`` / ``settle``, and its
victim heap also by ``add_demand`` / ``drop_demand``.  The
oracles here recompute from scratch what the index replaced:

* the index itself against a registry rescan of ``{INHBM, refcount 0}``,
  each time the event loop is about to process the next event (so after
  each previous one), and once more when the run drains — and, at each of
  those points, the victim heap: every idle block's entry is in the heap
  under the block's current victim key, and the stale entries stay under
  the compaction bound;
* every victim list against the full-registry sort the LRU policy used
  before the index existed (``tests.mem_oracle.sorted_victims``);
* the early-exit pending-missing sum of ``maintain_watermarks`` against
  the full sum, as the ``(low, high, proceed)`` it decides.

Runs cover stencil, matmul and SpMV at tiny scale with HBM overflow (so
fetches, evictions and rollbacks all happen) under seeded tie-breakers.
"""

import pytest

from repro import hooks as _probe
from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.spmv import SpMV, SpMVConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core import eviction
from repro.core.api import OOCRuntimeBuilder
from repro.mem.block import BlockState
from repro.race.explorer import SeededTieBreaker
from repro.sim.environment import Environment
from repro.units import GiB, MiB
from tests.mem_oracle import check_victim_heap, sorted_victims

STRATEGIES = ["no-io", "single-io", "multi-io", "phase-guided"]


def watermark_decision(strategy, pending_missing):
    """``(low, high, proceed)`` as ``maintain_watermarks`` derives them."""
    tracker = strategy.manager.tracker
    budget = tracker.budget
    low = min(int(strategy.watermark_low * budget), pending_missing)
    high = min(int(strategy.watermark_high * budget), pending_missing)
    proceed = not (tracker.uncommitted >= low or pending_missing == 0)
    return low, high, proceed


class IdleIndexOracle:
    """Probe subscriber that checks the index and the watermark sum per
    event; also wraps the victim selection to check every scan."""

    def __init__(self, built):
        self.registry = built.manager.registry
        self.index = built.manager.hbm.idle_blocks
        self.strategy = built.strategy
        self.checks = 0
        self.max_stale = 0
        self.scans = 0
        self.victims = 0
        self.wm_truncated = 0

    def on_processing(self, _event):
        self.check()

    def check(self):
        rescan = {b.bid for b in self.registry
                  if b.state is BlockState.INHBM and b.refcount == 0}
        assert self.index.keys() == rescan, (
            f"index-only {sorted(self.index.keys() - rescan)}, "
            f"rescan-only {sorted(rescan - self.index.keys())}")
        self.max_stale = max(self.max_stale,
                             check_victim_heap(self.registry, self.index))
        strategy = self.strategy
        full = sum(task.missing for pe in strategy.manager.pes
                   for task in pe.wait_queue)
        cap = max(1, int(strategy.watermark_high
                         * strategy.manager.tracker.budget))
        early = strategy.pending_missing(cap)
        self.wm_truncated += early != full
        assert (watermark_decision(strategy, early)
                == watermark_decision(strategy, full))
        self.checks += 1

    def lru_victims(self, registry, needed_bytes, include_demanded=True):
        got = self.real_lru_victims(registry, needed_bytes, include_demanded)
        expected = sorted_victims(registry, needed_bytes, include_demanded)
        assert [b.bid for b in got] == [b.bid for b in expected]
        self.scans += 1
        self.victims += len(got)
        return got

    real_lru_victims = staticmethod(eviction._lru_victims)


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
def test_idle_index_matches_rescan_after_every_event(app, strategy, seed,
                                                     monkeypatch):
    env = Environment()
    env.set_tie_breaker(SeededTieBreaker(seed))
    built = OOCRuntimeBuilder(strategy, cores=8, mcdram_capacity=64 * MiB,
                              ddr_capacity=GiB).build_into(env)
    oracle = IdleIndexOracle(built)
    monkeypatch.setattr(eviction, "_lru_victims", oracle.lru_victims)
    _probe.subscribe(oracle)
    try:
        APPS[app](built, seed)
        env.run()
    finally:
        _probe.unsubscribe(oracle)
    oracle.check()
    summary = built.manager.summary()
    assert summary["tasks_completed"] == summary["tasks_intercepted"] > 0
    assert summary["evictions"] > 0
    assert oracle.checks > 100
    assert oracle.max_stale > 0  # re-keys and retains did leave stale entries
    assert oracle.wm_truncated > 0  # the early exit did cut sums short
    # no-io's post-task eviction keeps the stencil clear of victim scans
    if (app, strategy) != ("stencil", "no-io"):
        assert oracle.scans > 0 and oracle.victims > 0
