"""Unit tests for the repro.lint static dependence-declaration checker."""

import os
import textwrap

import pytest

from repro.lint import check_file, check_paths, check_source
from repro.lint.findings import Severity
from repro.lint.rules import (RACE_RULES, RULES, SANITIZER_RULES,
                              STATIC_RULES)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "lint_bad_chare.py")


def lint(body: str):
    return check_source(textwrap.dedent(body), filename="t.py")


def rule_ids(findings):
    return sorted(f.rule for f in findings)


class TestRuleCatalog:
    def test_rule_families_partition_the_catalog(self):
        families = (set(STATIC_RULES), set(SANITIZER_RULES), set(RACE_RULES))
        assert set().union(*families) == set(RULES)
        for i, a in enumerate(families):
            for b in families[i + 1:]:
                assert not a & b

    def test_every_rule_documented(self):
        for rule in RULES.values():
            assert rule.title and rule.description


class TestCleanDeclarations:
    def test_matching_declaration_is_clean(self):
        assert lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"], readwrite=["b"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a, self.b],
                                           writes=[self.b])
        """) == []

    def test_non_chare_classes_are_ignored(self):
        assert lint("""
            class Helper:
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.zzz], writes=[])
        """) == []

    def test_transitive_chare_subclass_is_checked(self):
        findings = lint("""
            class Mid(Chare):
                pass

            class Leaf(Mid):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.b], writes=[])
        """)
        assert rule_ids(findings) == ["REP101", "REP104"]

    def test_stream_slice_idiom_resolves(self):
        """`[self.b, self.c][:n]` through a local is a may-use of both."""
        assert lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["b", "c"], writeonly=["a"])
                def go(self, n):
                    srcs = [self.b, self.c]
                    yield from self.kernel(flops=1, reads=srcs[:n],
                                           writes=[self.a])
        """) == []

    def test_spmv_concat_idiom_resolves(self):
        """`[self.A] + list(self.x_blocks)` resolves both operands."""
        assert lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["A", "x_blocks"],
                       writeonly=["y"])
                def go(self):
                    yield from self.kernel(
                        flops=1, reads=[self.A] + list(self.x_blocks),
                        writes=[self.y])
        """) == []

    def test_positional_kernel_arguments(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(1.0, [self.a], [self.b])
        """)
        assert rule_ids(findings) == ["REP101"]


class TestStaticRules:
    def test_rep101_undeclared_dependence(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a],
                                           writes=[self.b])
        """)
        assert rule_ids(findings) == ["REP101"]
        assert "self.b" in findings[0].message
        assert findings[0].severity is Severity.ERROR
        assert findings[0].chare == "C" and findings[0].entry == "go"

    def test_rep102_readonly_written(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[], writes=[self.a])
        """)
        assert rule_ids(findings) == ["REP102"]

    def test_rep102_writeonly_read(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, writeonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a],
                                           writes=[self.a])
        """)
        assert rule_ids(findings) == ["REP102"]

    def test_rep103_prefetch_without_deps(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True)
                def go(self):
                    yield
        """)
        assert rule_ids(findings) == ["REP103"]

    def test_rep104_dead_declaration_is_warning(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a", "b"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a], writes=[])
        """)
        assert rule_ids(findings) == ["REP104"]
        assert findings[0].severity is Severity.WARNING

    def test_rep105_duplicate_intent(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"], readwrite=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a], writes=[])
        """)
        assert "REP105" in rule_ids(findings)

    def test_rep106_duplicate_block_name_across_methods(self):
        findings = lint("""
            class C(Chare):
                @entry
                def setup_a(self, msg):
                    self.a = self.declare_block("x", 64)

                @entry
                def setup_b(self, msg):
                    self.b = self.declare_block("x", 64)
        """)
        assert rule_ids(findings) == ["REP106"]

    def test_rep107_declare_in_prefetch_entry(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    self.c = self.declare_block("c", 64)
                    yield from self.kernel(flops=1, reads=[self.a], writes=[])
        """)
        assert rule_ids(findings) == ["REP107"]

    def test_rep108_kernel_outside_prefetch(self):
        findings = lint("""
            class C(Chare):
                @entry
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a], writes=[])
        """)
        assert rule_ids(findings) == ["REP108"]
        assert findings[0].severity is Severity.WARNING

    def test_rep100_parse_error(self):
        findings = check_source("def broken(:\n", filename="bad.py")
        assert rule_ids(findings) == ["REP100"]

    def test_findings_render_with_anchor(self):
        findings = check_source(textwrap.dedent("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.a, self.b],
                                           writes=[])
        """), filename="app.py")
        rendered = findings[0].render()
        assert rendered.startswith("app.py:")
        assert "REP101" in rendered and "[C.go]" in rendered


class TestUnknownSuppression:
    def test_unresolvable_dep_list_suppresses_exactness_rules(self):
        """`readonly=NAMES` cannot be proven wrong; no REP101/REP104."""
        assert lint("""
            NAMES = ["a"]

            class C(Chare):
                @entry(prefetch=True, readonly=NAMES)
                def go(self):
                    yield from self.kernel(flops=1, reads=[self.b], writes=[])
        """) == []

    def test_unresolvable_kernel_args_suppress_dead_rule(self):
        assert lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=self.pick(),
                                           writes=[])
        """) == []

    def test_intent_mismatch_still_fires_on_resolved_part(self):
        findings = lint("""
            class C(Chare):
                @entry(prefetch=True, readonly=["a"])
                def go(self):
                    yield from self.kernel(flops=1, reads=self.pick(),
                                           writes=[self.a])
        """)
        assert rule_ids(findings) == ["REP102"]


class TestEntryPoints:
    def test_fixture_file_trips_every_static_rule_once(self):
        findings = check_file(FIXTURE)
        assert rule_ids(findings) == [
            "REP101", "REP102", "REP103", "REP104",
            "REP105", "REP106", "REP107", "REP108"]
        for finding in findings:
            assert finding.file == FIXTURE
            assert finding.line > 0

    def test_check_paths_on_module_name(self):
        report = check_paths(["repro.apps.stencil3d"])
        assert report.ok()

    def test_check_paths_on_package_name(self):
        report = check_paths(["repro.apps"])
        assert report.ok()

    def test_check_paths_unknown_target(self):
        with pytest.raises(FileNotFoundError):
            check_paths(["no.such.module.anywhere"])

    def test_report_gate_semantics(self):
        report = check_paths([FIXTURE])
        assert not report.ok()
        assert not report.ok(strict=True)
        assert len(report.errors) == 6
        assert len(report.warnings) == 2
        assert [f.rule for f in report if f.rule == "REP106"] == ["REP106"]
        assert "error(s)" in report.render()
