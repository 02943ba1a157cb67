"""Tests for MatMul, StreamApp and Jacobi2D applications."""

import pytest

from repro.apps.jacobi2d import Jacobi2D, JacobiConfig
from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stream_app import StreamApp, StreamAppConfig
from repro.core.api import OOCRuntimeBuilder
from repro.errors import ConfigError
from repro.units import GiB, MiB

HBM = 256 * MiB
DDR = 2 * GiB


def builder(strategy, cores=8, **kwargs):
    return OOCRuntimeBuilder(strategy, cores=cores, mcdram_capacity=HBM,
                             ddr_capacity=DDR, **kwargs)


class TestMatMulConfig:
    def test_geometry(self):
        cfg = MatMulConfig(n=1024, grid=8)
        assert cfg.block_dim == 128
        assert cfg.panel_bytes == 128 * 1024 * 8
        assert cfg.c_block_bytes == 128 * 128 * 8

    def test_for_working_set_matches_target(self):
        cfg = MatMulConfig.for_working_set(int(1.5 * GiB), block_dim=96)
        # A + B + C, N x N doubles each
        assert 3 * cfg.n * cfg.n * 8 == pytest.approx(1.5 * GiB, rel=0.1)
        assert cfg.block_dim == 96

    def test_flops_formula(self):
        cfg = MatMulConfig(n=512, grid=4)
        assert cfg.flops_per_task == 2 * 128 * 128 * 512

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            MatMulConfig(n=100, grid=7)  # not divisible
        with pytest.raises(ConfigError):
            MatMulConfig(n=0, grid=1)
        with pytest.raises(ConfigError):
            MatMulConfig(mkl_pack_factor=0)


class TestMatMulRuns:
    def run_matmul(self, strategy, n=768, grid=8, **kwargs):
        built = builder(strategy, **kwargs).build()
        cfg = MatMulConfig(n=n, grid=grid)
        app = MatMul(built, cfg)
        return built, app, app.run()

    def test_completes_all_tasks(self):
        _, app, result = self.run_matmul("multi-io")
        assert result.tasks_completed == 64
        assert result.total_time > 0

    def test_panels_shared_across_chares(self):
        built, app, _ = self.run_matmul("naive")
        # 8 A panels + 8 B panels + 64 C blocks
        assert len(built.machine.registry) == 8 + 8 + 64
        row0 = [app.array[(0, j)] for j in range(8)]
        assert all(c.A is row0[0].A for c in row0)

    def test_readonly_panels_survive_via_refcount_reuse(self):
        built, app, _ = self.run_matmul("multi-io")
        # every panel was fetched far fewer times than its use count
        for i in range(8):
            panel = app.panels.panel("A", i)
            fetches = panel.bytes_moved / panel.nbytes
            assert fetches <= 4  # used by 8 tasks

    def test_prefetch_beats_ddr_only(self):
        # needs enough concurrency that DDR4 bandwidth binds
        _, _, pref = self.run_matmul("multi-io", n=1536, grid=16, cores=32)
        _, _, ddr = self.run_matmul("ddr-only", n=1536, grid=16, cores=32)
        assert pref.total_time < ddr.total_time

    def test_mkl_scratch_pinned_to_ddr(self):
        built, _, _ = self.run_matmul("hbm-only", n=256, grid=4,
                                      cores=4)
        # even all-HBM placement produces some DDR traffic (MKL scratch)
        assert built.machine.ddr.bytes_read > 0


class TestStreamApp:
    def test_measures_bandwidth(self):
        built = builder("hbm-only", cores=8).build()
        cfg = StreamAppConfig(chares=8, array_bytes=4 * MiB, repeats=2)
        app = StreamApp(built, cfg)
        result = app.run()
        assert result.bandwidth > 0
        assert result.bytes_touched == 3 * 4 * MiB * 8

    def test_prefetch_strategy_fetches_before_kernel(self):
        built = builder("multi-io", cores=4).build()
        cfg = StreamAppConfig(chares=4, array_bytes=4 * MiB, repeats=1)
        app = StreamApp(built, cfg)
        app.run()
        assert built.strategy.fetches > 0

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ConfigError):
            StreamAppConfig(kernel="sort")


class TestJacobi:
    def test_converges_functionally(self):
        built = builder("hbm-only", cores=4).build()
        cfg = JacobiConfig(chare_grid=4, block_bytes=4 * MiB,
                           tolerance=1e-2, max_iterations=200)
        app = Jacobi2D(built, cfg, seed=3)
        result = app.run()
        assert result.converged
        assert result.final_residual < 1e-2
        # residuals decrease overall
        assert result.residual_history[-1] < result.residual_history[0]

    def test_respects_iteration_cap(self):
        built = builder("hbm-only", cores=4).build()
        cfg = JacobiConfig(chare_grid=4, block_bytes=4 * MiB,
                           tolerance=1e-12, max_iterations=3)
        result = Jacobi2D(built, cfg).run()
        assert not result.converged
        assert result.iterations_run == 3

    def test_runs_out_of_core(self):
        built = builder("multi-io", cores=4).build()
        cfg = JacobiConfig(chare_grid=4, block_bytes=32 * MiB,
                           tolerance=1e-2, max_iterations=20)
        result = Jacobi2D(built, cfg).run()
        assert built.strategy.fetches > 0
        assert result.iterations_run > 0

    def test_same_seed_same_residuals(self):
        def run():
            built = builder("hbm-only", cores=4).build()
            cfg = JacobiConfig(chare_grid=4, block_bytes=MiB,
                               tolerance=1e-3, max_iterations=30)
            return Jacobi2D(built, cfg, seed=11).run().residual_history

        assert run() == run()
