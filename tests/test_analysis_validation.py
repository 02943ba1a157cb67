"""Cross-validation: the simulator against the closed-form models.

For steady-state, uniform workloads the DES must agree with
:mod:`tests.analysis_oracle` to within a few percent — this is the strongest
evidence the event-driven machinery (fluid solver, queues, movers) has no
systematic timing bugs.
"""

import pytest

from tests import analysis_oracle as analysis
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.config import knl_config
from repro.core.api import OOCRuntimeBuilder
from repro.machine.knl import build_knl
from repro.sim.environment import Environment
from repro.units import GiB, MiB


class TestBandwidthShare:
    def test_port_bound(self):
        assert analysis.bandwidth_share(80e9, 64) == pytest.approx(1.25e9)

    def test_cap_bound(self):
        assert analysis.bandwidth_share(80e9, 2, per_stream_cap=12e9) == 12e9

    def test_invalid_streams(self):
        with pytest.raises(ValueError):
            analysis.bandwidth_share(1.0, 0)


class TestKernelAgainstSim:
    @pytest.mark.parametrize("flops,mb", [(1e9, 64), (35e9, 16), (0.0, 128)])
    def test_single_kernel_matches_model(self, flops, mb):
        node = build_knl(Environment(), cores=4, mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)
        nbytes = mb * MiB
        block = node.registry.declare("b", nbytes)
        node.topology.place_block(block, node.hbm)

        def body():
            return (yield from node.run_kernel_on_blocks(
                flops, reads=[block], writes=[block]))

        sim = node.env.run(until=node.env.process(body()))
        cfg = node.config
        predicted = analysis.kernel_time(
            flops, 2 * nbytes,
            core_flops=cfg.core_flops,
            effective_bandwidth=min(cfg.core_mem_bandwidth,
                                    node.hbm.write_bandwidth))
        assert sim == pytest.approx(predicted, rel=0.01)

    def test_contended_kernels_match_model(self):
        """64 concurrent DDR4 kernels run at the fair-share prediction."""
        node = build_knl(Environment(), cores=64)
        nbytes = 16 * MiB
        blocks = []
        for i in range(64):
            b = node.registry.declare(f"b{i}", nbytes)
            node.topology.place_block(b, node.ddr)
            blocks.append(b)

        def body(i):
            return (yield from node.run_kernel_on_blocks(
                0.0, reads=[blocks[i]], writes=[blocks[i]]))

        env = node.env
        procs = [env.process(body(i)) for i in range(64)]
        env.run(until=env.all_of(procs))
        share = analysis.bandwidth_share(node.ddr.write_bandwidth, 64,
                                         node.config.core_mem_bandwidth)
        predicted = 2 * nbytes / share
        for proc in procs:
            assert proc.value == pytest.approx(predicted, rel=0.01)


class TestMoveAgainstSim:
    def test_single_move_matches_model(self):
        node = build_knl(Environment(), mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)
        block = node.registry.declare("m", 128 * MiB)
        node.topology.place_block(block, node.ddr)
        node.env.run(until=node.env.process(node.mover.move(block, node.hbm)))
        predicted = analysis.move_time(
            128 * MiB,
            src_read_share=node.ddr.read_bandwidth,
            dst_write_share=node.hbm.write_bandwidth,
            copy_cap=node.mover.per_thread_copy_bw,
            alloc_cost=node.hbm.allocator.alloc_cost(128 * MiB),
            free_cost=node.ddr.allocator.free_cost(128 * MiB),
            latency=node.ddr.latency + node.hbm.latency)
        assert node.env.now == pytest.approx(predicted, rel=0.01)


class TestStencilAgainstSim:
    def test_static_placement_iteration_matches_model(self):
        """DDR-only Stencil3D iteration time ≈ the analytic blend."""
        built = OOCRuntimeBuilder("ddr-only", cores=64,
                                  mcdram_capacity=GiB,
                                  ddr_capacity=6 * GiB).build()
        cfg = StencilConfig(total_bytes=2 * GiB, block_bytes=8 * MiB,
                            iterations=3)
        app = Stencil3D(built, cfg)
        result = app.run()
        model = analysis.AnalyticStencil(
            built.machine.config, cfg.block_bytes, cfg.n_chares,
            cfg.flops_per_task, cfg.sweep_traffic_factor)
        predicted = model.iteration_time(hbm_fraction=0.0)
        # communication + scheduling overheads put the sim a little above
        assert result.mean_iteration_time == pytest.approx(predicted,
                                                           rel=0.15)
        assert result.mean_iteration_time >= predicted * 0.95

    def test_prefetch_run_respects_analytic_floor(self):
        """Measured multi-IO iterations cannot beat the closed-form floor,
        and land within ~25%% of it (overlap quality)."""
        built = OOCRuntimeBuilder("multi-io", cores=64,
                                  mcdram_capacity=GiB,
                                  ddr_capacity=6 * GiB).build()
        cfg = StencilConfig(total_bytes=2 * GiB, block_bytes=4 * MiB,
                            iterations=3)
        result = Stencil3D(built, cfg).run()
        model = analysis.AnalyticStencil(
            built.machine.config, cfg.block_bytes, cfg.n_chares,
            cfg.flops_per_task, cfg.sweep_traffic_factor)
        floor = model.prefetch_iteration_floor()
        assert result.mean_iteration_time >= floor * 0.98
        assert result.mean_iteration_time <= floor * 1.3

    def test_measured_speedup_tracks_analytic_bound(self):
        """Measured Fig-8 speedup lands near the closed-form bound; it may
        exceed it only by Naive's unmodelled overheads (~25%%)."""
        hbm, ddr = GiB, 6 * GiB
        results = {}
        for strategy in ("naive", "multi-io"):
            built = OOCRuntimeBuilder(strategy, cores=64,
                                      mcdram_capacity=hbm,
                                      ddr_capacity=ddr).build()
            cfg = StencilConfig(total_bytes=2 * GiB, block_bytes=4 * MiB,
                                iterations=3)
            results[strategy] = Stencil3D(built, cfg).run().total_time
        measured = results["naive"] / results["multi-io"]
        bound = analysis.stencil_speedup_bound(
            knl_config(mcdram_capacity=hbm, ddr_capacity=ddr),
            hbm_capacity_fraction=0.5)
        assert 1.0 < measured <= bound * 1.25

    def test_speedup_bound_magnitude(self):
        """The paper's 'upto 2X' sits inside the analytic bound."""
        bound = analysis.stencil_speedup_bound()
        assert 2.0 < bound < 3.0
