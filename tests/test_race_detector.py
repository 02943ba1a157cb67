"""racesan unit tests (hand-driven clocks) + whole-app integration."""

import importlib.util
import os
import types

from repro.race.clock import format_clock, fresh, happened_before, join
from repro.race.detector import RaceSanitizer

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "racy_strategy.py")


def load_racy_strategy():
    spec = importlib.util.spec_from_file_location("racy_strategy", FIXTURE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.RacyIOStrategy


def _block(bid):
    return types.SimpleNamespace(bid=bid, name=f"blk{bid}")


def _dev(name):
    return types.SimpleNamespace(name=name)


#: fake processes must outlive the detector's id()-keyed actor table
_PROCS: dict = {}
_EVENT = object()


def _switch(rs, name):
    """Resume a fake process so `name` becomes the ambient actor."""
    proc = _PROCS.setdefault((id(rs), name),
                             types.SimpleNamespace(name=name, env=None))
    rs.on_resume(proc, _EVENT)


class TestClocks:
    def test_fresh_and_join(self):
        a = fresh("a")
        assert a == {"a": 1}
        join(a, {"b": 3, "a": 0})
        assert a == {"a": 1, "b": 3}

    def test_happened_before(self):
        assert happened_before("a", 2, {"a": 2})
        assert happened_before("a", 2, {"a": 5, "b": 1})
        assert not happened_before("a", 2, {"a": 1})
        assert not happened_before("a", 1, {"b": 9})

    def test_format_clock_truncates(self):
        text = format_clock({f"p{i}": i for i in range(10)}, limit=2)
        assert "+8 more" in text


class TestDetectorUnits:
    def test_unordered_writes_flagged_with_clock_evidence(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        _switch(rs, "A")
        rs.on_kernel_access([], [b])
        _switch(rs, "B")
        rs.on_kernel_access([], [b])
        assert [f.rule for f in rs.findings] == ["RACE301"]
        f = rs.findings[0]
        assert f.first.actor == "A" and f.second.actor == "B"
        assert f.first.own >= 1 and isinstance(f.first.clock, dict)
        assert "no happens-before" in f.render()
        assert "@" in f.render()  # vector-clock evidence is printed

    def test_handoff_edge_orders_the_accesses(self):
        rs = RaceSanitizer(stacks=False)
        b, item = _block(1), object()
        _switch(rs, "A")
        rs.on_kernel_access([], [b])
        rs.on_handoff_put(item)
        _switch(rs, "B")
        rs.on_handoff_get(item)
        rs.on_kernel_access([], [b])
        assert rs.findings == []

    def test_settle_edge_orders_mover_then_reader(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        _switch(rs, "mover")
        rs.on_move_start(b, _dev("ddr4"), _dev("mcdram"))
        rs.on_move_end(b, _dev("ddr4"), _dev("mcdram"), 0, 0.0)
        _switch(rs, "pe0")
        rs.on_kernel_access([b], [])  # acquires the settle clock
        assert rs.findings == []

    def test_reader_vs_concurrent_move_is_a_race(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        _switch(rs, "pe0")
        rs.on_kernel_access([b], [])
        _switch(rs, "rogue")
        rs.on_move_start(b, _dev("mcdram"), _dev("ddr4"))
        assert [f.rule for f in rs.findings] == ["RACE301"]
        ops = (rs.findings[0].first.op, rs.findings[0].second.op)
        assert ops == ("kernel-read", "move-start mcdram->ddr4")

    def test_release_edge_legalises_the_eviction(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        _switch(rs, "pe0")
        rs.on_retain(b)
        rs.on_kernel_access([b], [])
        rs.on_release(b)
        _switch(rs, "io")
        rs.on_move_start(b, _dev("mcdram"), _dev("ddr4"))
        assert rs.findings == []

    def test_retain_is_atomic_and_never_conflicts(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        _switch(rs, "io-a")
        rs.on_move_start(b, _dev("ddr4"), _dev("mcdram"))
        _switch(rs, "io-b")
        rs.on_retain(b)  # concurrent refcount bump on a shared block: legal
        assert rs.findings == []
        assert rs.accesses_observed >= 2

    def test_writeonly_read_reports_race302(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        intent = types.SimpleNamespace(reads=False, writes=True)
        task = types.SimpleNamespace(
            tid=7, deps=((b, intent),),
            message=types.SimpleNamespace(
                target=types.SimpleNamespace(label="C[0]"),
                entry=types.SimpleNamespace(name="go")))
        _switch(rs, "pe0")
        rs.on_deliver(None, None, task)
        rs.on_kernel_access([b], [])
        assert [f.rule for f in rs.findings] == ["RACE302"]
        assert "writeonly" in rs.findings[0].render()

    def test_duplicate_pairs_reported_once(self):
        rs = RaceSanitizer(stacks=False)
        b = _block(1)
        for _ in range(3):
            _switch(rs, "A")
            rs.on_kernel_access([], [b])
            _switch(rs, "B")
            rs.on_kernel_access([], [b])
        # one finding per directed (actor, op) pair: A→B and B→A, not six
        assert len(rs.findings) == 2

    def test_max_findings_cap_counts_suppressed(self):
        rs = RaceSanitizer(stacks=False, max_findings=1)
        for bid in range(3):
            b = _block(bid)
            _switch(rs, "A")
            rs.on_kernel_access([], [b])
            _switch(rs, "B")
            rs.on_kernel_access([], [b])
        assert len(rs.findings) == 1
        assert rs.suppressed == 2
        assert "suppressed" in rs.render_report()


class TestDetectorIntegration:
    def test_shipped_strategies_run_clean(self):
        from repro.race.explorer import (matmul_runner, run_schedule,
                                         stencil_runner)
        cases = [
            ("stencil", stencil_runner(strategy="multi-io", mcdram=64 << 20,
                                       total=128 << 20, block=16 << 20,
                                       iterations=1), (None, 0, 1)),
            ("stencil", stencil_runner(strategy="single-io", mcdram=64 << 20,
                                       total=128 << 20, block=16 << 20,
                                       iterations=1), (None, 0)),
            ("stencil", stencil_runner(strategy="no-io", mcdram=64 << 20,
                                       total=128 << 20, block=16 << 20,
                                       iterations=1), (None, 0)),
            ("matmul", matmul_runner(strategy="multi-io", mcdram=64 << 20,
                                     working_set=64 << 20, block_dim=64),
             (None,)),
        ]
        for app, runner, seeds in cases:
            for seed in seeds:
                outcome = run_schedule(runner, seed)
                assert not outcome.failed, \
                    f"{app} seed={seed}: {outcome.render()}"

    def test_racy_fixture_reports_race301_with_evidence(self):
        from repro.race.explorer import run_schedule, stencil_runner
        runner = stencil_runner(strategy=load_racy_strategy(),
                                mcdram=64 << 20, total=128 << 20,
                                block=16 << 20, iterations=1)
        outcome = run_schedule(runner, None)
        races = [f for f in outcome.race_findings if f.rule == "RACE301"]
        assert races, outcome.render()
        f = races[0]
        assert "rogue-evictor" in (f.first.actor, f.second.actor) or \
            "rogue-evictor" in f.message
        # both access records carry stacks and vector clocks
        assert f.first.stack and f.second.stack
        assert f.first.clock and f.second.clock
        assert "clock" in f.render() and "stack" in f.render()
