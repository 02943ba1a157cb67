"""bwlint v2 phase analysis: REP310-314 fixtures, goldens, summaries."""

import ast
import textwrap

from repro.lint.guidance import build_guidance, render_timeline
from repro.lint.phases import analyze_phases  # noqa: F401 - import check
from repro.lint.traffic import analyze_tree, check_tree


def phase_rules(body: str) -> list[str]:
    tree = ast.parse(textwrap.dedent(body))
    return sorted(f.rule for f in check_tree(tree, "t.py")
                  if f.rule.startswith("REP31"))


def timeline_of(body: str):
    tree = ast.parse(textwrap.dedent(body))
    return analyze_tree(tree, "t.py").timeline


def sites_of(body: str):
    tree = ast.parse(textwrap.dedent(body))
    return analyze_tree(tree, "t.py").sites


# Two-phase clean module: the driver dispatches produce() then consume(),
# the producer writes the block the consumer reads.  Every REP31x
# fixture below is a small perturbation of this shape.
CLEAN = """
    from repro.runtime.chare import Chare
    from repro.runtime.entry import entry

    class C(Chare):
        @entry
        def setup(self, barrier):
            self.a = self.declare_block("a", 1024)
            barrier.contribute()

        @entry(prefetch=True, writeonly=["a"])
        def produce(self, red):
            result = yield from self.kernel(
                flops=1.0, reads=[], writes=[self.a])
            red.contribute(result.duration)

        @entry(prefetch=True, readonly=["a"])
        def consume(self, red):
            result = yield from self.kernel(
                flops=1.0, reads=[self.a], writes=[])
            red.contribute(result.duration)

    def main(arr, red):
        arr.broadcast("setup", red)
        arr.broadcast("produce", red)
        arr.broadcast("consume", red)
"""


class TestPhaseSegmentation:
    def test_clean_module_has_no_phase_findings(self):
        assert phase_rules(CLEAN) == []

    def test_one_phase_per_driver_dispatch_in_line_order(self):
        timeline = timeline_of(CLEAN)
        assert [p.label for p in timeline.phases] == \
            ["C.setup", "C.produce", "C.consume"]
        assert [p.index for p in timeline.phases] == [0, 1, 2]
        assert not timeline.suppressed

    def test_site_interval_spans_first_to_last_touch(self):
        timeline = timeline_of(CLEAN)
        assert timeline.interval("C.a") == (1, 2)

    def test_driver_loop_trips_multiply_the_phase(self):
        timeline = timeline_of("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(result.duration)

            def main(arr, red):
                arr.broadcast("setup", red)
                for it in range(12):
                    arr.broadcast("go", red)
        """)
        go = timeline.phases[1]
        assert go.trips is not None and go.trips.value == 12.0

    def test_non_literal_send_suppresses_the_family(self):
        timeline = timeline_of("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def orphan(self, red):
                    red.contribute(0)

            def main(arr, red, which):
                arr.broadcast(which, red)
        """)
        assert timeline.suppressed
        assert timeline.findings == []


class TestRuleFixtures:
    def test_rep310_phase_dead_still_resident(self):
        # 12 GiB block 'a' is last touched in phase 1; phase 2 needs
        # another 12 GiB — together over the 16 GiB tier while 'a'
        # stays resident
        assert phase_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 12 * 2**30)
                    self.b = self.declare_block("b", 12 * 2**30)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def first(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(result.duration)

                @entry(prefetch=True, readwrite=["b"])
                def second(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.b], writes=[self.b])
                    red.contribute(result.duration)

            def main(arr, red):
                arr.broadcast("setup", red)
                arr.broadcast("first", red)
                arr.broadcast("second", red)
        """) == ["REP310"]

    def test_rep311_cross_phase_intent_conflict(self):
        # the consumer phase comes before the producer phase
        assert phase_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, writeonly=["a"])
                def produce(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[], writes=[self.a])
                    red.contribute(result.duration)

                @entry(prefetch=True, readonly=["a"])
                def consume(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[])
                    red.contribute(result.duration)

            def main(arr, red):
                arr.broadcast("setup", red)
                arr.broadcast("consume", red)
                arr.broadcast("produce", red)
        """) == ["REP311"]

    def test_rep312_fetch_before_first_use(self):
        # early() declares 'a' (so the runtime fetches it) but only
        # late(), a phase later, actually touches it
        assert phase_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    self.b = self.declare_block("b", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readonly=["a"], readwrite=["b"])
                def early(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.b], writes=[self.b])
                    red.contribute(result.duration)

                @entry(prefetch=True, readonly=["a"])
                def late(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[])
                    red.contribute(result.duration)

            def main(arr, red):
                arr.broadcast("setup", red)
                arr.broadcast("early", red)
                arr.broadcast("late", red)
        """) == ["REP312"]

    def test_rep313_phase_footprint_exceeds_hbm(self):
        # one phase's two entries declare 10 GiB + 10 GiB > 16 GiB HBM
        assert phase_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 10 * 2**30)
                    self.b = self.declare_block("b", 10 * 2**30)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    self.send("helper", red)
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(result.duration)

                @entry(prefetch=True, readwrite=["b"])
                def helper(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.b], writes=[self.b])
                    red.contribute(result.duration)

            def main(arr, red):
                arr.broadcast("setup", red)
                arr.broadcast("go", red)
        """) == ["REP313"]

    def test_rep314_unreachable_entry(self):
        # orphan()'s name appears in no string constant anywhere
        assert phase_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(result.duration)

                @entry
                def orphan(self, red):
                    red.contribute(0)

            def main(arr, red):
                arr.broadcast("setup", red)
                arr.broadcast("go", red)
        """) == ["REP314"]

    def test_entry_spec_style_name_suppresses_rep314(self):
        # dispatch through entry_spec("plain")-style lookups is invisible
        # to the message graph; the bare string constant must suppress
        assert phase_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(result.duration)

                @entry
                def orphan(self, red):
                    red.contribute(0)

            def main(arr, rt, red):
                arr.broadcast("setup", red)
                arr.broadcast("go", red)
                rt.lookup(C, "orphan")
        """) == []


# the per-app goldens pin down phase count, ordering, trip inference and
# per-(site, phase) volumes in one readable artifact; regenerate with
#   python -m repro guide --phases src/repro/apps/<app>.py
GOLDEN_STENCIL = """\
phase 0: StencilChare.setup [src/repro/apps/stencil3d.py:200] trips=?
  entry StencilChare.setup
phase 1: StencilChare.exchange [src/repro/apps/stencil3d.py:225] trips=20
  entry StencilChare.compute_kernel
  entry StencilChare.exchange
  entry StencilChare.recv_ghost
  site StencilChare.grid reads=67108864 writes=67108864
"""

GOLDEN_MATMUL = """\
phase 0: MatMulPanels.setup [src/repro/apps/matmul.py:200] trips=1
  entry MatMulPanels.setup
phase 1: MatMulChare.setup [src/repro/apps/matmul.py:203] trips=1
  entry MatMulChare.setup
phase 2: MatMulChare.multiply [src/repro/apps/matmul.py:210] trips=1
  entry MatMulChare.multiply
  site MatMulChare.C reads=- writes=524288
  site MatMulPanels.A reads=33554432 writes=-
  site MatMulPanels.B reads=33554432 writes=-
"""

GOLDEN_SPMV = """\
phase 0: SpMVVectors.setup [src/repro/apps/spmv.py:156] trips=1
  entry SpMVVectors.setup
phase 1: SpMVChare.setup [src/repro/apps/spmv.py:164] trips=64
  entry SpMVChare.setup
phase 2: SpMVChare.multiply [src/repro/apps/spmv.py:177] trips=10
  entry SpMVChare.multiply
  site SpMVChare.A reads=8388608 writes=-
  site SpMVChare.y reads=- writes=262144
  site SpMVVectors.x reads=262144 writes=-
"""


class TestGoldenTimelines:
    def _render(self, app: str) -> str:
        return render_timeline(build_guidance([f"src/repro/apps/{app}.py"]))

    def test_stencil3d_timeline(self):
        assert self._render("stencil3d") == GOLDEN_STENCIL

    def test_matmul_timeline(self):
        assert self._render("matmul") == GOLDEN_MATMUL

    def test_spmv_timeline(self):
        assert self._render("spmv") == GOLDEN_SPMV

    def test_render_is_deterministic(self):
        assert self._render("spmv") == self._render("spmv")


# -- interprocedural summaries vs manual inlining ---------------------------

HELPER_BASED = """
    from repro.runtime.chare import Chare
    from repro.runtime.entry import entry

    class C(Chare):
        @entry
        def setup(self, barrier):
            self.a = self.declare_block("a", 4096)
            barrier.contribute()

        def inner(self, red):
            result = yield from self.kernel(
                flops=1.0, reads=[self.a], writes=[self.a])
            red.contribute(result.duration)

        def outer(self, red):
            for j in range(3):
                yield from self.inner(red)

        @entry(prefetch=True, readwrite=["a"])
        def go(self, red):
            for i in range(5):
                yield from self.outer(red)
"""

INLINED = """
    from repro.runtime.chare import Chare
    from repro.runtime.entry import entry

    class C(Chare):
        @entry
        def setup(self, barrier):
            self.a = self.declare_block("a", 4096)
            barrier.contribute()

        @entry(prefetch=True, readwrite=["a"])
        def go(self, red):
            for i in range(5):
                for j in range(3):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(result.duration)
"""


class TestSummaryVsInlined:
    def test_summary_analysis_matches_manual_inlining(self):
        summarized = sites_of(HELPER_BASED)["C.a"]
        inlined = sites_of(INLINED)["C.a"]
        assert summarized.reads is not None and inlined.reads is not None
        assert summarized.reads.value == inlined.reads.value == 15 * 4096.0
        assert summarized.writes.value == inlined.writes.value

    def test_recursive_helper_widens_to_unknown(self):
        site = sites_of("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 4096)
                    barrier.contribute()

                def spin(self, red, n):
                    result = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    if n:
                        yield from self.spin(red, n - 1)

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    yield from self.spin(red, 3)
        """)["C.a"]
        # the volume is attributed but its magnitude is unknown
        assert site.reads is not None
        assert not site.reads.known()
