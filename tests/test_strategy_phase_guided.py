"""Tests for PhaseGuidedStrategy: phase tracking, eviction, lookahead."""

import pytest

from repro.core.api import OOCRuntimeBuilder
from repro.core.strategies import make_strategy
from repro.core.strategies.phase_guided import PhaseGuidedStrategy
from repro.lint.guidance import GuidanceFile
from repro.mem.block import BlockState
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.units import GiB, MiB
from tests.mem_oracle import check_registry_invariants

HBM = 256 * MiB
DDR = 2 * GiB


def site(cls, name, *, first=None, last=None, tier="hbm", priority=1.0,
         order=0, shared=False):
    rec = {"class": cls, "name": name, "shared": shared,
           "intents": ["readwrite"], "size": None, "reads": None,
           "writes": None, "tier": tier, "priority": priority,
           "fetch_order": order}
    if first is not None:
        rec["first_phase"] = first
        rec["last_phase"] = last if last is not None else first
        rec["phases"] = []
    return rec


def phase_row(index, entries, *, label="", line=0):
    return {"index": index, "file": "t.py", "label": label or entries[0],
            "line": line, "trips": None, "entries": list(entries)}


class TwoPhaseWorker(Chare):
    @entry
    def setup(self, nbytes, barrier):
        self.early = self.declare_block("early", nbytes)
        self.late = self.declare_block("late", nbytes)
        barrier.contribute()

    @entry(prefetch=True, readwrite=["early"])
    def first(self, reducer):
        duration = yield from self.kernel(
            flops=1e8, reads=[self.early], writes=[self.early])
        reducer.contribute(duration)

    @entry(prefetch=True, readwrite=["late"])
    def second(self, reducer):
        duration = yield from self.kernel(
            flops=1e8, reads=[self.late], writes=[self.late])
        reducer.contribute(duration)


TWO_PHASE_GUIDE = GuidanceFile(
    sites={
        "TwoPhaseWorker.early": site("TwoPhaseWorker", "early",
                                     first=1, last=1),
        "TwoPhaseWorker.late": site("TwoPhaseWorker", "late",
                                    first=2, last=2, order=1),
    },
    phases=[
        phase_row(0, ["TwoPhaseWorker.setup"]),
        phase_row(1, ["TwoPhaseWorker.first"]),
        phase_row(2, ["TwoPhaseWorker.second"]),
    ])


def run_two_phase(*, chares=8, block=16 * MiB, cores=4, **builder_kwargs):
    """Run setup, first, second under the guidance ``use_guidance`` set."""
    built = OOCRuntimeBuilder(
        PhaseGuidedStrategy(), cores=cores,
        mcdram_capacity=HBM, ddr_capacity=DDR, **builder_kwargs).build()
    rt = built.runtime
    arr = rt.create_array(TwoPhaseWorker, chares)
    barrier = rt.reducer(chares)
    arr.broadcast("setup", block, barrier)
    rt.run_until(barrier.done)
    built.manager.finalize_placement()
    for name in ("first", "second"):
        red = rt.reducer(chares)
        arr.broadcast(name, red)
        rt.run_until(red.done)
    return built, arr


class TestPhaseTracking:
    def test_entry_phase_map_built_from_phase_table(self, use_guidance):
        use_guidance(TWO_PHASE_GUIDE)
        strategy = PhaseGuidedStrategy()
        built = OOCRuntimeBuilder(strategy, cores=2, mcdram_capacity=HBM,
                                  ddr_capacity=DDR).build()
        assert strategy._entry_phase == {"TwoPhaseWorker.setup": 0,
                                        "TwoPhaseWorker.first": 1,
                                        "TwoPhaseWorker.second": 2}
        assert strategy._intervals == {"TwoPhaseWorker.early": (1, 1),
                                       "TwoPhaseWorker.late": (2, 2)}
        assert built.strategy is strategy

    def test_entry_repeated_across_phases_maps_to_earliest(
            self, use_guidance):
        use_guidance(GuidanceFile(sites={}, phases=[
            phase_row(0, ["W.go"]), phase_row(1, ["W.go"])]))
        strategy = PhaseGuidedStrategy()
        OOCRuntimeBuilder(strategy, cores=2, mcdram_capacity=HBM,
                          ddr_capacity=DDR).build()
        assert strategy._entry_phase == {"W.go": 0}

    def test_phase_advances_monotonically_through_run(self, use_guidance,
                                                      monkeypatch):
        seen = []
        observe = PhaseGuidedStrategy._observe_phase

        def recorded(strategy, pe, task):
            observe(strategy, pe, task)
            if not seen or seen[-1] != strategy.phase:
                seen.append(strategy.phase)
        monkeypatch.setattr(PhaseGuidedStrategy, "_observe_phase", recorded)
        use_guidance(TWO_PHASE_GUIDE)
        built, _ = run_two_phase()
        assert built.strategy.phase == 2
        # setup is not intercepted (not a prefetch entry), so the
        # strategy first observes phase 1, then phase 2
        assert seen == [1, 2]

    def test_phase_dead_blocks_evicted_at_boundary(self, use_guidance):
        # 8 x 2 x 16 MiB = 256 MiB exactly fills HBM; without the
        # phase-dead sweep, 'early' blocks would linger INHBM
        use_guidance(TWO_PHASE_GUIDE)
        built, arr = run_two_phase()
        assert all(c.early.state is BlockState.INDDR for c in arr)

    def test_lookahead_prefetch_fires(self, use_guidance, lookahead):
        # during phase 1, idle IO lanes pull 'late' (first hot in
        # phase 2) so phase 2 starts partially resident
        use_guidance(TWO_PHASE_GUIDE)
        run_two_phase()
        assert lookahead


@pytest.fixture
def lookahead(monkeypatch):
    """Records each idle-IO lookahead pass that prefetched a block."""
    fired = []
    idle_work = PhaseGuidedStrategy.io_idle_work

    def recorded(strategy, pe, lane):
        progress = yield from idle_work(strategy, pe, lane)
        if progress:
            fired.append(lane)
        return progress
    monkeypatch.setattr(PhaseGuidedStrategy, "io_idle_work", recorded)
    return fired


class TestDegradedModes:
    def test_empty_phase_table_behaves_exactly_like_multi_io(
            self, use_guidance, lookahead):
        use_guidance(GuidanceFile(sites={
            "TwoPhaseWorker.early": site("TwoPhaseWorker", "early"),
            "TwoPhaseWorker.late": site("TwoPhaseWorker", "late", order=1),
        }, phases=[]))
        phased, _ = run_two_phase()
        assert phased.strategy.phase == -1
        assert not lookahead

        built = OOCRuntimeBuilder(
            "multi-io", cores=4, mcdram_capacity=HBM, ddr_capacity=DDR).build()
        rt = built.runtime
        arr = rt.create_array(TwoPhaseWorker, 8)
        barrier = rt.reducer(8)
        arr.broadcast("setup", 16 * MiB, barrier)
        rt.run_until(barrier.done)
        built.manager.finalize_placement()
        for name in ("first", "second"):
            red = rt.reducer(8)
            arr.broadcast(name, red)
            rt.run_until(red.done)
        assert phased.env.now == built.env.now

    def test_empty_guidance_still_completes(self, use_guidance):
        use_guidance(GuidanceFile(sites={}))
        built, arr = run_two_phase()
        assert built.manager.tasks_completed == 16

    def test_guidance_env_resolution(self, use_guidance, tmp_path,
                                     monkeypatch):
        # the environment is no way in: a junk $REPRO_GUIDANCE is not read
        use_guidance(TWO_PHASE_GUIDE)
        monkeypatch.setenv("REPRO_GUIDANCE", str(tmp_path / "junk.json"))
        guide = PhaseGuidedStrategy().guidance()
        assert guide is TWO_PHASE_GUIDE
        assert guide.phase_table() == TWO_PHASE_GUIDE.phase_table()

    def test_registry_construction(self):
        assert make_strategy("phase-guided").name == "phase-guided"

    def test_deterministic_repeat(self, use_guidance):
        use_guidance(TWO_PHASE_GUIDE)
        t1 = run_two_phase()[0].env.now
        t2 = run_two_phase()[0].env.now
        assert t1 == t2

    def test_registry_invariants_after_run(self, use_guidance):
        use_guidance(TWO_PHASE_GUIDE)
        built, _ = run_two_phase()
        check_registry_invariants(built.machine.registry)
        assert built.machine.hbm.allocator.peak_used <= HBM


class TestAcceptance:
    """ISSUE 9 gate: the three apps complete clean under simsan + racesan,
    and phase-guided beats static-guided on the HBM-overflow stencil."""

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

    def test_stencil3d_clean_under_sanitizers(self):
        from repro.apps.stencil3d import Stencil3D, StencilConfig

        def run():
            built, racesan = self._build("phase-guided")
            cfg = StencilConfig(total_bytes=256 * MiB, block_bytes=16 * MiB,
                                iterations=2)
            return built, racesan, Stencil3D(built, cfg).run()
        assert self._sanitized(run).total_time > 0

    def test_matmul_clean_under_sanitizers(self):
        from repro.apps.matmul import MatMul, MatMulConfig

        def run():
            built, racesan = self._build("phase-guided")
            cfg = MatMulConfig.for_working_set(128 * MiB, block_dim=64)
            return built, racesan, MatMul(built, cfg).run()
        assert self._sanitized(run).total_time > 0

    def test_spmv_clean_under_sanitizers(self):
        from repro.apps.spmv import SpMV, SpMVConfig

        def run():
            built, racesan = self._build("phase-guided")
            cfg = SpMVConfig(block_rows=16, block_bytes=8 * MiB,
                             vector_bytes=MiB, couplings=3, iterations=2,
                             seed=0)
            return built, racesan, SpMV(built, cfg).run()
        assert self._sanitized(run).total_time > 0

    @pytest.mark.slow
    def test_hbm_overflow_stencil_beats_static_guided(self):
        """The EXPERIMENTS.md table config: 1 GiB grid over 512 MiB HBM."""
        from repro.apps.stencil3d import Stencil3D, StencilConfig

        def run(strategy):
            built = OOCRuntimeBuilder(
                strategy, cores=64, mcdram_capacity=512 * MiB,
                ddr_capacity=3 * GiB).build()
            cfg = StencilConfig(total_bytes=1 * GiB, block_bytes=2 * MiB,
                                iterations=3)
            return Stencil3D(built, cfg).run().total_time

        assert run("phase-guided") <= run("static-guided")
