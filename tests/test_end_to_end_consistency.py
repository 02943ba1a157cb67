"""End-to-end cross-strategy consistency checks.

These tie the whole stack together: regardless of scheduling strategy, the
*work* performed is identical (same kernels, same bytes computed on), only
its placement and timing differ.
"""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.units import GiB, MiB

STRATEGIES = ["naive", "ddr-only", "single-io", "no-io", "multi-io"]


@pytest.fixture(scope="module")
def runs():
    out = {}
    for strategy in STRATEGIES:
        built = OOCRuntimeBuilder(strategy, cores=8,
                                  mcdram_capacity=128 * MiB,
                                  ddr_capacity=1 * GiB).build()
        cfg = StencilConfig(total_bytes=256 * MiB, block_bytes=8 * MiB,
                            iterations=3)
        result = Stencil3D(built, cfg).run()
        out[strategy] = (built, result)
    return out


class TestWorkConservation:
    def test_same_task_count_everywhere(self, runs):
        counts = {s: r.tasks_completed for s, (_, r) in runs.items()}
        assert len(set(counts.values())) == 1

    def test_same_kernel_executions(self, runs):
        kernels = {s: b.machine.kernels_executed for s, (b, _) in runs.items()}
        assert len(set(kernels.values())) == 1

    def test_messages_scale_with_strategy_independence(self, runs):
        """Ghost/compute messaging is app logic: identical across
        strategies (interception adds no messages)."""
        sent = {s: b.runtime.messages_sent for s, (b, _) in runs.items()}
        assert len(set(sent.values())) == 1

    def test_prefetch_strategies_only_move_managed_bytes(self, runs):
        block = 8 * MiB
        for strategy in ("single-io", "no-io", "multi-io"):
            built, _ = runs[strategy]
            assert built.strategy.bytes_fetched % block == 0
            assert built.strategy.bytes_evicted % block == 0

    def test_static_strategies_never_move(self, runs):
        for strategy in ("naive", "ddr-only"):
            built, _ = runs[strategy]
            assert built.machine.mover.moves_completed == 0

    def test_timing_order_sanity(self, runs):
        """The coarse performance ordering the whole paper rests on."""
        times = {s: r.total_time for s, (_, r) in runs.items()}
        assert times["ddr-only"] > times["multi-io"]
        assert times["naive"] > times["multi-io"]
