"""A finished spec run frees its whole object graph by reference count.

``execute_spec`` pauses the cyclic garbage collector for each spec, and
``run_app_spec`` ends every app run with ``Environment.close()``.  The
pause only saves time if nothing a run allocates needs the collector to
be freed: a cycle left behind would sit in memory until the collector
next runs.  So every app under every registered strategy, in both event
queue layouts (batched, and the keyed heap of a seeded tie-breaker),
plus a traced run, must leave no cyclic garbage at all — and so must a
run that raises.
"""

from __future__ import annotations

import collections
import gc

import pytest

from repro.bench.experiments import fig1_plan, fig7_plan
from repro.bench.harness import Scale
from repro.bench.leaderboard import leaderboard_plans
from repro.core.strategies import STRATEGIES
from repro.exec import runners
from repro.exec.runners import execute_spec
from repro.units import MiB


def _specs() -> list[dict]:
    """One TINY spec per app per strategy, on 16 cores, every other one
    replicated; plus a traced run, a STREAM cell, a memcpy cell and a
    seeded schedule under racesan and simsan."""
    specs = [{"kind": s.kind, "params": {**s.params, "cores": 16}}
             for plan in leaderboard_plans(Scale.TINY) for s in plan.specs]
    for i, spec in enumerate(specs):
        spec["params"]["replicate"] = i % 2
    traced = next(s for s in specs if s["kind"] == "stencil")
    specs.append({"kind": "stencil",
                  "params": {**traced["params"], "trace": True}})
    for plan in (fig1_plan(Scale.TINY), fig7_plan(Scale.TINY)):
        spec = plan.specs[0]
        specs.append({"kind": spec.kind, "params": spec.params})
    specs.append({"kind": "schedule", "params": {
        "app": "stencil", "seed": 3,
        "params": {"strategy": "multi-io", "cores": 4, "mcdram": 32 * MiB,
                   "ddr": 256 * MiB, "total": 64 * MiB, "block": 16 * MiB,
                   "iterations": 1}}})
    return specs


@pytest.fixture
def collector_restored():
    was_enabled = gc.isenabled()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_every_app_and_strategy_leaves_no_cyclic_garbage(collector_restored):
    specs = _specs()
    covered = {(s["kind"], s["params"]["strategy"]) for s in specs
               if "strategy" in s["params"]}
    assert covered == {(kind, name) for kind in
                       ("stencil", "matmul", "spmv", "stream_app")
                       for name in STRATEGIES}
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    for spec in specs:
        out = execute_spec(spec)
        assert out["ok"], out.get("traceback")
    gc.collect()
    left = collections.Counter(type(o).__name__ for o in gc.garbage)
    assert sum(left.values()) == 0, left.most_common(10)


def test_a_failing_spec_leaves_no_cyclic_garbage(collector_restored):
    # a 256 MiB working set cannot fit a 32 MiB HBM: hbm-only raises
    # mid-build, and the run must still end with Environment.close()
    spec = {"kind": "stencil", "params": {
        "strategy": "hbm-only", "cores": 4, "mcdram": 32 * MiB,
        "ddr": 512 * MiB, "total": 256 * MiB, "block": 16 * MiB,
        "iterations": 1}}
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    out = execute_spec(spec)
    assert not out["ok"]
    assert out["error"].startswith("ConfigError"), out["error"]
    gc.collect()
    left = collections.Counter(type(o).__name__ for o in gc.garbage)
    assert sum(left.values()) == 0, left.most_common(10)


class TestCollectorPause:
    @pytest.fixture
    def seen(self, monkeypatch):
        """A spec kind that records the collector state it runs under."""
        seen: list[bool] = []

        def probe(params):
            seen.append(gc.isenabled())
            if params.get("fail"):
                raise RuntimeError("probe failure")
            return {}

        monkeypatch.setitem(runners.EXECUTORS, "gc-probe", probe)
        return seen

    @pytest.mark.parametrize("fail", [False, True])
    def test_paused_during_the_spec_and_restored_after(self, seen, fail,
                                                       collector_restored):
        gc.enable()
        out = execute_spec({"kind": "gc-probe", "params": {"fail": fail}})
        assert out["ok"] is not fail
        assert seen == [False]
        assert gc.isenabled()

    def test_failing_selftest_restores_the_collector(self,
                                                     collector_restored):
        gc.enable()
        out = execute_spec({"kind": "selftest", "params": {"fail": "x"}})
        assert not out["ok"]
        assert gc.isenabled()

    @pytest.mark.parametrize("fail", [False, True])
    def test_a_caller_disabled_collector_stays_disabled(self, seen, fail,
                                                        collector_restored):
        gc.disable()
        execute_spec({"kind": "gc-probe", "params": {"fail": fail}})
        assert seen == [False]
        assert not gc.isenabled()
