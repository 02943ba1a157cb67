"""Extra application paths: traffic accounting and reuse diagnostics."""

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.core.api import OOCRuntimeBuilder
from repro.units import GiB, MiB


def builder(strategy, cores=8, **kwargs):
    return OOCRuntimeBuilder(strategy, cores=cores,
                             mcdram_capacity=256 * MiB,
                             ddr_capacity=2 * GiB, **kwargs)


class TestStencilTraffic:
    def test_kernel_traffic_scales_with_sweep_factor(self):
        def kernel_time(factor):
            built = builder("hbm-only", cores=4).build()
            cfg = StencilConfig(total_bytes=64 * MiB, block_bytes=16 * MiB,
                                iterations=1, sweep_traffic_factor=factor,
                                inner_sweeps=1)
            return Stencil3D(built, cfg).run().mean_kernel_time

        assert kernel_time(16.0) > kernel_time(2.0)

    def test_ghost_messages_counted(self):
        built = builder("naive", cores=4).build()
        cfg = StencilConfig(total_bytes=128 * MiB, block_bytes=16 * MiB,
                            iterations=1)
        app = Stencil3D(built, cfg)
        before = built.runtime.messages_sent
        app.run()
        # 8 chares x 3 neighbours ghosts + 8 compute self-sends + bookkeeping
        assert built.runtime.messages_sent - before >= 8 * 3 + 8

    def test_iteration_times_recorded_per_iteration(self):
        built = builder("naive", cores=4).build()
        cfg = StencilConfig(total_bytes=128 * MiB, block_bytes=16 * MiB,
                            iterations=4)
        result = Stencil3D(built, cfg).run()
        assert len(result.iteration_times) == 4
        assert all(t > 0 for t in result.iteration_times)


class TestMatMulReuse:
    def test_c_blocks_private_a_b_shared(self):
        built = builder("naive").build()
        cfg = MatMulConfig(n=512, grid=4)
        app = MatMul(built, cfg)
        app.run()
        # A panels: 4, B panels: 4, C blocks: 16
        panels = [b for b in built.machine.registry if "shared" in b.name]
        cs = [b for b in built.machine.registry if b.name.endswith(".C")]
        assert len(panels) == 8
        assert len(cs) == 16

    def test_pack_factor_scales_kernel_time(self):
        def kernel_time(pack):
            built = builder("hbm-only", cores=4).build()
            cfg = MatMulConfig(n=512, grid=4, mkl_pack_factor=pack,
                               mkl_scratch_fraction=0.0)
            return MatMul(built, cfg).run().mean_kernel_time

        assert kernel_time(8.0) > kernel_time(1.0)

    def test_block_cyclic_keeps_rows_concurrent(self):
        built = builder("naive", cores=4).build()   # 2x2 PE grid
        cfg = MatMulConfig(n=512, grid=4)
        app = MatMul(built, cfg)
        pes_of_row0 = {app.array[(0, j)].pe_id for j in range(4)}
        assert len(pes_of_row0) == 2  # row spread over a PE-grid row
