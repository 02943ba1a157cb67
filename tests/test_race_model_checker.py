"""REP2xx placement-state model checker: clean surface + seeded defects.

The checker runs inside the lint pipeline; these tests drive it through
:func:`repro.lint.check_source` and its file and path drivers and keep
the REP2xx findings, as ``repro lint --select REP2`` does.
"""

import os
import textwrap

from repro import lint

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "racy_strategy.py")
#: the placement-protocol surface CI gates: the strategies and the mover
DEFAULT_TARGETS = [os.path.join(SRC, "core", "strategies"),
                   os.path.join(SRC, "mem", "mover.py")]


def rep2(findings):
    return [f for f in findings if f.rule.startswith("REP2")]


def check_source(source):
    return rep2(lint.check_source(source))


def check_file(path):
    return rep2(lint.check_file(path))


class TestDefaultSurface:
    def test_shipped_strategies_and_mover_check_clean(self):
        report = rep2(lint.check_paths(DEFAULT_TARGETS))
        assert report == [], "\n".join(f.render() for f in report)

    def test_default_targets_exist(self):
        for target in DEFAULT_TARGETS:
            assert os.path.exists(target)


class TestSeededFixture:
    def test_every_seeded_rule_fires(self):
        rules = {f.rule for f in check_file(FIXTURE)}
        assert rules == {"REP200", "REP201", "REP202", "REP203",
                         "REP204", "REP205"}

    def test_findings_anchor_to_class_and_method(self):
        findings = check_file(FIXTURE)
        rep202 = next(f for f in findings if f.rule == "REP202")
        assert rep202.chare == "RacyIOStrategy"
        assert rep202.entry == "_rogue_main"
        assert rep202.line > 0


class TestScoping:
    def test_non_protocol_classes_are_out_of_scope(self):
        source = textwrap.dedent("""\
            class BlockCache:
                def stash(self, block):
                    block.state = BlockState.INHBM
                def drop(self, victim):
                    yield from self.mgr.mover.move(victim, self.mgr.ddr)
            """)
        assert check_source(source) == []

    def test_cross_module_strategy_subclass_is_in_scope(self):
        source = textwrap.dedent("""\
            class Custom(MultiIOThreadStrategy):
                def hack(self, block):
                    block.state = BlockState.INHBM
            """)
        rules = [f.rule for f in check_source(source)]
        assert rules == ["REP200"]

    def test_guarded_eviction_is_clean(self):
        source = textwrap.dedent("""\
            class S(Strategy):
                def tidy(self, victim):
                    if victim.in_use or victim.pinned:
                        return
                    yield from self.evict_block(victim, "io")
            """)
        assert check_source(source) == []

    def test_settle_on_every_exit_is_clean(self):
        source = textwrap.dedent("""\
            class M(DataMover):
                def move(self, block, dst):
                    block.begin_move()
                    if bad:
                        block.settle(src, state)
                        raise CapacityError("no room")
                    block.settle(dst, state)
            """)
        assert check_source(source) == []

    def test_syntax_error_reports_rep100(self):
        findings = lint.check_source("def broken(:\n")
        assert [f.rule for f in findings] == ["REP100"]


class TestLintIntegration:
    def test_lint_pipeline_includes_model_checker(self):
        from repro.lint import check_source as lint_check
        source = textwrap.dedent("""\
            class Custom(Strategy):
                def hack(self, block):
                    block.state = BlockState.MOVING
            """)
        rules = {f.rule for f in lint_check(source)}
        assert "REP200" in rules

    def test_rules_catalog_has_race_and_rep2xx(self):
        from repro.lint.rules import RACE_RULES, RULES, STATIC_RULES
        for rule_id in ("REP200", "REP201", "REP202", "REP203",
                        "REP204", "REP205"):
            assert rule_id in STATIC_RULES and rule_id in RULES
        for rule_id in ("RACE301", "RACE302", "RACE303"):
            assert rule_id in RACE_RULES and rule_id in RULES
