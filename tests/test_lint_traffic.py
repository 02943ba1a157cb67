"""bwlint tests: REP300-REP306 seeded defects, inference, crash contract."""

import ast
import textwrap

import pytest

from repro.lint.nodeindex import NodeIndex
from repro.lint.traffic import AnalyzerCrash, analyze_tree, check_tree
from repro.units import MiB


def traffic_rules(body: str) -> list[str]:
    index = NodeIndex(ast.parse(textwrap.dedent(body)))
    return sorted(f.rule for f in check_tree(index, "t.py")
                  if f.rule.startswith("REP3"))


def sites_of(body: str):
    index = NodeIndex(ast.parse(textwrap.dedent(body)))
    return analyze_tree(index, "t.py").sites


# A well-formed chare: setup binds the site, the prefetch kernel reads
# and writes it.  Every rule fixture below is a one-line perturbation.
CLEAN = """
    from repro.runtime.chare import Chare
    from repro.runtime.entry import entry

    class C(Chare):
        @entry
        def setup(self, barrier):
            self.a = self.declare_block("a", 1024)
            barrier.contribute()

        @entry(prefetch=True, readwrite=["a"])
        def go(self, red):
            duration = yield from self.kernel(
                flops=1.0, reads=[self.a], writes=[self.a])
            red.contribute(duration)
"""


class TestRuleFixtures:
    def test_clean_chare_has_no_findings(self):
        assert traffic_rules(CLEAN) == []

    def test_rep300_overdeclared_readwrite(self):
        # declared readwrite, but the kernel only ever reads it
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    self.out = self.declare_block("out", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"], writeonly=["out"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.out])
                    red.contribute(duration)
        """) == ["REP300"]

    def test_rep301_dead_allocation(self):
        # self.dead is declared and then never loaded anywhere
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    self.dead = self.declare_block("scratch", 4096)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(duration)
        """) == ["REP301"]

    def test_rep302_writeonly_shared_site(self):
        # every entry referencing the shared panel declares writeonly
        assert traffic_rules("""
            from repro.runtime.chare import Chare, NodeGroup
            from repro.runtime.entry import entry

            class Panels(NodeGroup):
                @entry
                def setup(self, barrier):
                    self.share_block(("S", 0), 8192)
                    barrier.contribute()

                def panel(self, i):
                    return self.shared[("S", i)]

            class C(Chare):
                @entry
                def setup(self, panels: Panels, barrier):
                    self.s = panels.panel(0)
                    barrier.contribute()

                @entry(prefetch=True, writeonly=["s"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[], writes=[self.s])
                    red.contribute(duration)
        """) == ["REP302"]

    def test_rep303_unbound_dependence(self):
        # "ghost" is declared and used but self.ghost is never bound
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"], readonly=["ghost"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a, self.ghost],
                        writes=[self.a])
                    red.contribute(duration)
        """) == ["REP303"]

    def test_rep304_footprint_exceeds_hbm(self):
        # 9 GiB + 9 GiB simultaneously live > the 16 GiB HBM tier
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry
            from repro.units import GiB

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 9 * GiB)
                    self.b = self.declare_block("b", 9 * GiB)
                    barrier.contribute()

                @entry(prefetch=True, readonly=["a"], readwrite=["b"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a, self.b],
                        writes=[self.b])
                    red.contribute(duration)
        """) == ["REP304"]

    def test_rep305_unbounded_kernel_loop(self):
        # a while loop with no inferable trip count wraps the launch
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    while not self.converged():
                        duration = yield from self.kernel(
                            flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(duration)

                def converged(self):
                    return True
        """) == ["REP305"]

    def test_rep306_conflicting_alias_intents(self):
        # self.b aliases self.a; the decl gives the two handles
        # different intents for the same underlying site
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    self.b = self.a
                    barrier.contribute()

                @entry(prefetch=True, readonly=["a"], writeonly=["b"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.b])
                    red.contribute(duration)
        """) == ["REP306"]


class TestSuppressionGates:
    def test_tainted_class_suppresses_everything(self):
        # duplicate literal declare names taint the class: the site map
        # is ambiguous, so no REP3xx rule may fire
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    self.b = self.declare_block("a", 2048)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"], readonly=["ghost"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a, self.ghost],
                        writes=[self.a])
                    red.contribute(duration)
        """) == []

    def test_unknown_kernel_args_suppress_intent_rules(self):
        # reads=blocks(...) is opaque, so REP300/REP303 must stay silent
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1024)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"], readonly=["ghost"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=self.pick(), writes=[self.a])
                    red.contribute(duration)

                def pick(self):
                    return [self.a]
        """) == []

    def test_unannotated_attr_assignment_suppresses_rep303(self):
        # self.shared = shared (opaque param) must not read as unbound
        assert traffic_rules("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, shared, barrier):
                    self.a = self.declare_block("a", 1024)
                    self.s = shared
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"], readonly=["s"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a, self.s],
                        writes=[self.a])
                    red.contribute(duration)
        """) == []


class TestInference:
    def test_literal_size_and_volumes(self):
        sites = sites_of(CLEAN)
        (site,) = sites.values()
        assert site.id == "C.a"
        assert site.size.value == 1024.0
        assert site.reads.value == 1024.0
        assert site.writes.value == 1024.0
        assert site.intents == {"readwrite"}
        assert site.order == 0

    def test_send_map_resolves_parameter_sizes(self):
        # the driver's send() call supplies the setup argument, so the
        # site size resolves through the (entry, arity) send map
        sites = sites_of("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry
            from repro.units import MiB

            class C(Chare):
                @entry
                def setup(self, nbytes, barrier):
                    self.buf = self.declare_block("buf", nbytes)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["buf"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.buf], writes=[self.buf])
                    red.contribute(duration)

            def drive(array, barrier):
                for idx in array.indices:
                    array.send(idx, "setup", 32 * MiB, barrier)
        """)
        assert sites["C.buf"].size.value == float(32 * MiB)

    def test_loop_trip_multiplies_traffic(self):
        sites = sites_of("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1000)
                    barrier.contribute()

                @entry(prefetch=True, readonly=["a"])
                def go(self, red):
                    for _ in range(5):
                        duration = yield from self.kernel(
                            flops=1.0, reads=[self.a], writes=[])
                    red.contribute(duration)
        """)
        assert sites["C.a"].reads.value == 5000.0
        assert sites["C.a"].writes is None or sites["C.a"].writes.value == 0.0

    def test_traffic_scale_kwarg_multiplies_traffic(self):
        sites = sites_of("""
            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry

            class C(Chare):
                @entry
                def setup(self, barrier):
                    self.a = self.declare_block("a", 1000)
                    barrier.contribute()

                @entry(prefetch=True, readonly=["a"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[],
                        traffic_scale=8.0)
                    red.contribute(duration)
        """)
        assert sites["C.a"].reads.value == 8000.0

    def test_config_dataclass_fields_resolve_symbolically(self):
        sites = sites_of("""
            import dataclasses

            from repro.runtime.chare import Chare
            from repro.runtime.entry import entry
            from repro.units import MiB

            @dataclasses.dataclass(frozen=True)
            class Cfg:
                block_bytes: int = 64 * MiB

            class C(Chare):
                @entry
                def setup(self, cfg: Cfg, barrier):
                    self.a = self.declare_block("a", cfg.block_bytes)
                    barrier.contribute()

                @entry(prefetch=True, readwrite=["a"])
                def go(self, red):
                    duration = yield from self.kernel(
                        flops=1.0, reads=[self.a], writes=[self.a])
                    red.contribute(duration)
        """)
        site = sites["C.a"]
        assert site.size.value == float(64 * MiB)
        assert "Cfg.block_bytes" in site.size.expr


class TestCrashContract:
    def test_forced_crash_raises_analyzer_crash(self, crash_analyzer):
        crash_analyzer("C")
        index = NodeIndex(ast.parse(textwrap.dedent(CLEAN)))
        with pytest.raises(AnalyzerCrash) as err:
            check_tree(index, "boom.py")
        assert err.value.file == "boom.py"
        assert err.value.function == "C"
        assert isinstance(err.value.cause, RuntimeError)


class TestCleanTree:
    def test_repo_sources_have_zero_rep3_findings(self, repo_lint_report):
        """REP300-306 must report nothing on the repo's own code."""
        rep3 = [f for f in repo_lint_report.findings
                if f.rule.startswith("REP3")]
        assert rep3 == [], [f.render() for f in rep3]
