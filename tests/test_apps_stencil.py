"""Tests for the Stencil3D application."""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.errors import ConfigError
from repro.units import GiB, MiB

HBM = 256 * MiB
DDR = 2 * GiB


def run_stencil(strategy, *, total=512 * MiB, block=32 * MiB, iterations=2,
                cores=8, **kwargs):
    built = OOCRuntimeBuilder(strategy, cores=cores, mcdram_capacity=HBM,
                              ddr_capacity=DDR, **kwargs).build()
    cfg = StencilConfig(total_bytes=total, block_bytes=block,
                        iterations=iterations)
    app = Stencil3D(built, cfg)
    return built, app, app.run()


class TestStencilConfig:
    def test_chare_count(self):
        cfg = StencilConfig(total_bytes=32 * GiB, block_bytes=64 * MiB)
        assert cfg.n_chares == 512

    def test_chare_grid_factorisation(self):
        cfg = StencilConfig(total_bytes=32 * GiB, block_bytes=64 * MiB)
        gx, gy, gz = cfg.chare_grid()
        assert gx * gy * gz == 512
        assert (gx, gy, gz) == (8, 8, 8)

    def test_grid_for_prime_count(self):
        cfg = StencilConfig(total_bytes=13 * MiB, block_bytes=MiB)
        gx, gy, gz = cfg.chare_grid()
        assert gx * gy * gz == 13

    def test_paper_reduced_working_sets(self):
        """Figure 8's x-axis: 2/4/8 GB reduced WS from 32 GB total."""
        for rws_gb, block_mb in ((2, 32), (4, 64), (8, 128)):
            cfg = StencilConfig(total_bytes=32 * GiB,
                                block_bytes=block_mb * MiB)
            assert cfg.reduced_working_set(64) == rws_gb * GiB

    def test_flops_scale_with_inner_sweeps(self):
        lo = StencilConfig(inner_sweeps=1)
        hi = StencilConfig(inner_sweeps=20)
        assert hi.flops_per_task == 20 * lo.flops_per_task

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            StencilConfig(total_bytes=0)
        with pytest.raises(ConfigError):
            StencilConfig(total_bytes=MiB, block_bytes=2 * MiB)
        with pytest.raises(ConfigError):
            StencilConfig(iterations=0)
        with pytest.raises(ConfigError):
            StencilConfig(sweep_traffic_factor=0)


class TestStencilRuns:
    def test_completes_all_tasks(self):
        _, app, result = run_stencil("multi-io")
        assert result.tasks_completed == app.config.n_chares * 2
        assert len(result.iteration_times) == 2

    def test_neighbour_topology(self):
        built, app, _ = run_stencil("naive", total=128 * MiB, block=16 * MiB,
                                    iterations=1)
        # 8 chares -> 2x2x2 grid: every chare has exactly 3 neighbours
        for chare in app.array:
            assert len(chare.neighbours) == 3
        corner = app.array[(0, 0, 0)]
        assert set(corner.neighbours) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_kernel_time_positive_and_consistent(self):
        _, _, result = run_stencil("ddr-only")
        assert result.kernel_time_total > 0
        assert result.mean_kernel_time > 0
        assert result.total_time >= result.mean_iteration_time

    def test_hbm_only_faster_than_ddr_only(self):
        """Figure 2's effect at small scale (when the set fits in HBM)."""
        _, _, fast = run_stencil("hbm-only", total=128 * MiB, block=16 * MiB,
                                 cores=8)
        _, _, slow = run_stencil("ddr-only", total=128 * MiB, block=16 * MiB,
                                 cores=8)
        assert slow.mean_kernel_time > fast.mean_kernel_time

    def test_out_of_core_multi_io_beats_ddr_only(self):
        # bandwidth sensitivity needs enough concurrency to saturate DDR4
        kwargs = dict(total=512 * MiB, block=4 * MiB, cores=32, iterations=2)
        _, _, ddr = run_stencil("ddr-only", **kwargs)
        _, _, pref = run_stencil("multi-io", **kwargs)
        assert pref.total_time < ddr.total_time

    def test_deterministic(self):
        t1 = run_stencil("multi-io")[2].total_time
        t2 = run_stencil("multi-io")[2].total_time
        assert t1 == t2

    def test_single_chare_degenerate_case(self):
        _, _, result = run_stencil("hbm-only", total=16 * MiB, block=16 * MiB,
                                   iterations=2, cores=2)
        assert result.tasks_completed == 2
