"""Tests for StaticGuidedStrategy and the block-label -> site mapping."""

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.core.strategies.static_guided import (StaticGuidedStrategy,
                                                 block_site_id)
from repro.errors import SchedulingError
from repro.lint.guidance import GuidanceFile
from repro.mem.block import BlockState, DataBlock
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.units import GiB, MiB

HBM = 256 * MiB
DDR = 2 * GiB


def record(cls, name, *, tier="hbm", priority=1.0, order=0, shared=False):
    return {"class": cls, "name": name, "shared": shared,
            "intents": ["readwrite"], "size": None, "reads": None,
            "writes": None, "tier": tier, "priority": priority,
            "fetch_order": order}


class TestBlockSiteId:
    def test_chare_array_block(self):
        block = DataBlock("StencilChare[3].grid", MiB)
        assert block_site_id(block) == "StencilChare.grid"

    def test_multi_index_chare_block(self):
        block = DataBlock("MatMulChare[(1, 2)].C", MiB)
        assert block_site_id(block) == "MatMulChare.C"

    def test_shared_nodegroup_block(self):
        block = DataBlock("MatMulPanels[nodegroup].shared('A', 2)", MiB)
        assert block_site_id(block) == "MatMulPanels.A"

    def test_unstructured_label_is_none(self):
        assert block_site_id(DataBlock("scratch", MiB)) is None


class Worker(Chare):
    @entry
    def setup(self, nbytes, barrier):
        self.data = self.declare_block("data", nbytes)
        barrier.contribute()

    @entry(prefetch=True, readwrite=["data"])
    def compute(self, reducer):
        result = yield from self.kernel(
            flops=1e8, reads=[self.data], writes=[self.data])
        reducer.contribute(result.duration)


class TwoBlockWorker(Chare):
    @entry
    def setup(self, nbytes, barrier):
        # "cold" declared first: arrival order favours it, guidance
        # priority must override
        self.cold = self.declare_block("cold", nbytes)
        self.hot = self.declare_block("hot", nbytes)
        barrier.contribute()

    @entry(prefetch=True, readonly=["cold"], readwrite=["hot"])
    def compute(self, reducer):
        result = yield from self.kernel(
            flops=1e8, reads=[self.cold, self.hot], writes=[self.hot])
        reducer.contribute(result.duration)


def run_app(strategy, *, chare=Worker, chares=16, block=32 * MiB, rounds=2,
            cores=4, **builder_kwargs):
    built = OOCRuntimeBuilder(strategy, cores=cores, mcdram_capacity=HBM,
                              ddr_capacity=DDR,
                              **builder_kwargs).build()
    rt = built.runtime
    arr = rt.create_array(chare, chares)
    barrier = rt.reducer(chares)
    arr.broadcast("setup", block, barrier)
    rt.run_until(barrier.done)
    built.manager.finalize_placement()
    for _ in range(rounds):
        red = rt.reducer(chares)
        arr.broadcast("compute", red)
        rt.run_until(red.done)
    return built, arr


class TestPlacement:
    def test_unknown_sites_place_exactly_like_naive(self, use_guidance):
        # the test Worker has no guidance record, so every block gets
        # the default density and placement degrades to the baseline
        use_guidance(GuidanceFile(sites={}))
        guided, garr = run_app(StaticGuidedStrategy())
        naive, narr = run_app("naive")
        assert [c.data.state for c in garr] == [c.data.state for c in narr]
        assert guided.env.now == naive.env.now

    def test_high_priority_sites_claim_hbm_first(self, use_guidance):
        use_guidance(GuidanceFile(sites={
            "TwoBlockWorker.cold": record("TwoBlockWorker", "cold",
                                          priority=0.5, order=0),
            "TwoBlockWorker.hot": record("TwoBlockWorker", "hot",
                                         priority=5.0, order=1),
        }))
        # 8 chares x 2 x 32 MiB = 512 MiB over a 256 MiB HBM: only the
        # 8 hot blocks fit
        built, arr = run_app(StaticGuidedStrategy(),
                             chare=TwoBlockWorker, chares=8, rounds=1)
        assert all(c.hot.state is BlockState.INHBM for c in arr)
        assert all(c.cold.state is BlockState.INDDR for c in arr)

    def test_ddr_tier_sites_are_pinned(self, use_guidance):
        use_guidance(GuidanceFile(sites={
            "Worker.data": record("Worker", "data", tier="ddr",
                                  priority=0.0)}))
        built, arr = run_app(StaticGuidedStrategy(), chares=4, rounds=1)
        assert all(c.data.state is BlockState.INDDR for c in arr)
        assert built.strategy.blocks_pinned_ddr == 4

    def test_guidance_from_env(self, use_guidance):
        use_guidance(GuidanceFile(sites={
            "Worker.data": record("Worker", "data", tier="ddr")}))
        from_env = StaticGuidedStrategy()
        assert from_env.guidance().tier("Worker.data") == "ddr"

    def test_never_intercepts(self):
        strategy = StaticGuidedStrategy()
        assert strategy.intercepts is False
        with pytest.raises(SchedulingError):
            next(strategy.submit(None, None))
        with pytest.raises(SchedulingError):
            next(strategy.task_finished(None, None))


class TestAcceptance:
    """ISSUE 7 gate: the three apps complete under simsan + racesan when
    driven purely by the guidance bwlint emitted, no slower than naive."""

    def _sanitized(self, run):
        from repro.lint import SimSanitizer

        simsan = SimSanitizer(mode="record").install()
        racesan = None
        try:
            built, racesan, result = run()
            simsan.check_quiescent(built.manager)
            assert simsan.violations == [], \
                [v.render() for v in simsan.violations]
            assert racesan.findings == [], \
                [f.render() for f in racesan.findings]
            return result
        finally:
            # both observers live in process-wide hook slots: leaking one
            # would slow (and potentially fail) every later test
            if racesan is not None:
                racesan.uninstall()
            simsan.uninstall()

    def _build(self, strategy):
        from repro.race.detector import RaceSanitizer

        built = OOCRuntimeBuilder(strategy, cores=8,
                                  mcdram_capacity=128 * MiB,
                                  ddr_capacity=2 * GiB).build()
        racesan = RaceSanitizer(stacks=False).install(built.env)
        return built, racesan

    def _stencil(self, strategy):
        from repro.apps.stencil3d import Stencil3D, StencilConfig

        def run():
            built, racesan = self._build(strategy)
            cfg = StencilConfig(total_bytes=256 * MiB, block_bytes=16 * MiB,
                                iterations=2)
            return built, racesan, Stencil3D(built, cfg).run()
        return self._sanitized(run)

    def _matmul(self, strategy):
        from repro.apps.matmul import MatMul, MatMulConfig

        def run():
            built, racesan = self._build(strategy)
            cfg = MatMulConfig.for_working_set(128 * MiB, block_dim=64)
            return built, racesan, MatMul(built, cfg).run()
        return self._sanitized(run)

    def _spmv(self, strategy):
        from repro.apps.spmv import SpMV, SpMVConfig

        def run():
            built, racesan = self._build(strategy)
            cfg = SpMVConfig(block_rows=16, block_bytes=8 * MiB,
                             vector_bytes=MiB, couplings=3, iterations=2,
                             seed=0)
            return built, racesan, SpMV(built, cfg).run()
        return self._sanitized(run)

    def test_stencil3d_completes_no_slower_than_naive(self):
        guided = self._stencil("static-guided")
        naive = self._stencil("naive")
        assert guided.total_time <= naive.total_time

    def test_matmul_completes_no_slower_than_naive(self):
        guided = self._matmul("static-guided")
        naive = self._matmul("naive")
        assert guided.total_time <= naive.total_time

    def test_spmv_completes_no_slower_than_naive(self):
        guided = self._spmv("static-guided")
        naive = self._spmv("naive")
        assert guided.total_time <= naive.total_time
