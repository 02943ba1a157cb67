"""Additional unit tests for the closed-form analysis oracle."""

import pytest

from tests import analysis_oracle as analysis
from repro.config import knl_config
from repro.units import GiB, MiB


class TestKernelTime:
    def test_compute_bound(self):
        t = analysis.kernel_time(70e9, 1e6, core_flops=35e9,
                                 effective_bandwidth=1e12)
        assert t == pytest.approx(2.0)

    def test_memory_bound(self):
        t = analysis.kernel_time(1e3, 10e9, core_flops=35e9,
                                 effective_bandwidth=5e9)
        assert t == pytest.approx(2.0)

    def test_zero_everything(self):
        assert analysis.kernel_time(0.0, 0.0, core_flops=35e9,
                                    effective_bandwidth=1.0) == 0.0


class TestMoveTime:
    def test_bottleneck_is_min_of_three(self):
        t = analysis.move_time(100.0, src_read_share=50.0,
                               dst_write_share=10.0, copy_cap=25.0)
        assert t == pytest.approx(10.0)

    def test_fixed_costs_added(self):
        t = analysis.move_time(100.0, src_read_share=100.0,
                               dst_write_share=100.0, copy_cap=100.0,
                               alloc_cost=0.5, free_cost=0.25, latency=0.25)
        assert t == pytest.approx(2.0)


class TestAnalyticStencil:
    def make(self, **kwargs):
        cfg = knl_config(mcdram_capacity=GiB, ddr_capacity=6 * GiB)
        defaults = dict(machine=cfg, block_bytes=4 * MiB,
                        n_chares=512, flops_per_task=1e9)
        defaults.update(kwargs)
        return analysis.AnalyticStencil(**defaults)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            self.make().iteration_time(1.5)

    def test_all_hbm_faster_than_all_ddr(self):
        model = self.make()
        assert model.iteration_time(1.0) < model.iteration_time(0.0)

    def test_iteration_time_monotone_in_hbm_fraction(self):
        model = self.make()
        times = [model.iteration_time(f) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert times == sorted(times, reverse=True)

    def test_wrapper_function_agrees(self):
        model = self.make()
        cfg = knl_config(mcdram_capacity=GiB, ddr_capacity=6 * GiB)
        wrapped = analysis.stencil_iteration_time(
            cfg, 4 * MiB, 512, 1e9, 0.5)
        assert wrapped == pytest.approx(model.iteration_time(0.5))

    def test_movement_floor_scales_with_total(self):
        small = self.make(n_chares=256)
        large = self.make(n_chares=512)
        assert large.movement_floor() == pytest.approx(
            2 * small.movement_floor())

    def test_prefetch_floor_at_least_compute(self):
        model = self.make(flops_per_task=1e12)  # compute-heavy
        per_task = 1e12 / model.machine.core_flops
        assert model.prefetch_iteration_floor() >= \
            per_task * (model.n_chares / model.pes) * 0.999
