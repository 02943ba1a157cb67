"""The exec engine: ordering, dedup, crash isolation, parallel equivalence."""

import dataclasses
import json

import pytest

from repro.bench.experiments import fig2_plan
from repro.bench.harness import FigurePlan, Scale, run_plan
from repro.errors import ExperimentError
from repro.exec.cache import ResultCache
from repro.exec.engine import Engine, run_specs
from repro.exec.spec import RunSpec


def selftest(value, **extra):
    return RunSpec("selftest", {"value": value, **extra},
                   label=f"selftest/{value}")


class TestEngineBasics:
    def test_results_align_with_input_order(self):
        specs = [selftest(i) for i in range(5)]
        results = Engine(jobs=1).run(specs)
        assert [r.result["value"] for r in results] == list(range(5))
        assert all(r.ok for r in results)

    def test_duplicate_specs_execute_once(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        specs = [selftest(1), selftest(2), selftest(1)]
        results = Engine(jobs=1, cache=cache).run(specs)
        assert [r.result["value"] for r in results] == [1, 2, 1]
        assert cache.stores == 2  # the duplicate shared one execution

    def test_largest_cost_runs_first(self):
        order = []
        specs = [RunSpec("selftest", {"value": i}, cost=float(i))
                 for i in range(4)]
        Engine(jobs=1, progress=lambda ev: order.append(
            ev["spec"].params["value"])).run(specs)
        assert order == [3, 2, 1, 0]

    def test_unknown_kind_is_a_structured_error(self):
        [result] = Engine(jobs=1).run([RunSpec("no-such-kind", {})])
        assert not result.ok
        assert "unknown spec kind" in result.error


class TestCrashIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_failure_does_not_kill_the_sweep(self, jobs):
        specs = [selftest(1), RunSpec("selftest", {"fail": "boom"}),
                 selftest(2)]
        results = Engine(jobs=jobs).run(specs)
        assert [r.ok for r in results] == [True, False, True]
        assert "boom" in results[1].error
        assert "RuntimeError" in results[1].error

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        bad = RunSpec("selftest", {"fail": "x"})
        Engine(jobs=1, cache=cache).run([bad])
        assert cache.stores == 0
        assert cache.get(bad) is None


class TestCachePath:
    def test_second_run_is_answered_from_cache(self, tmp_path):
        specs = [selftest(i) for i in range(3)]
        cold = Engine(jobs=1,
                      cache=ResultCache(root=tmp_path,
                                        fingerprint="f" * 64)).run(specs)
        warm_cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        warm = Engine(jobs=1, cache=warm_cache).run(specs)
        assert [r.result for r in warm] == [r.result for r in cold]
        assert all(r.cached for r in warm)
        assert warm_cache.session_stats() == {
            "hits": 3, "misses": 0, "stores": 0}

    def test_fingerprint_change_forces_rerun(self, tmp_path):
        spec = selftest(1)
        Engine(jobs=1, cache=ResultCache(
            root=tmp_path, fingerprint="a" * 64)).run([spec])
        [rerun] = Engine(jobs=1, cache=ResultCache(
            root=tmp_path, fingerprint="b" * 64)).run([spec])
        assert not rerun.cached


class TestJobsOne:
    def test_never_builds_a_pool(self, monkeypatch):
        from concurrent import futures

        def forbidden(*a, **k):
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", forbidden)
        results = Engine(jobs=1).run([selftest(i) for i in range(3)])
        assert all(r.ok and r.source == "inline" for r in results)

    def test_broken_pool_falls_back_inline(self, monkeypatch):
        from concurrent import futures

        def broken(*a, **k):
            raise futures.process.BrokenProcessPool("worker died")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", broken)
        results = Engine(jobs=4).run([selftest(i) for i in range(3)])
        assert all(r.ok and r.source == "inline" for r in results)


class TestRunPlan:
    def test_raises_naming_failed_specs(self):
        plan = FigurePlan("x", [selftest(1),
                                RunSpec("selftest", {"fail": "x", "value": 7},
                                        label="selftest/7")],
                          assemble=lambda results: pytest.fail("assembled"))
        with pytest.raises(ExperimentError, match="1 of 2 runs failed"
                           r":\n  selftest/7: "):
            run_plan(plan)


class TestParallelEquivalence:
    """The acceptance property: tables identical whatever --jobs is."""

    def figure_json(self, **engine):
        plan = fig2_plan(Scale.TINY, iterations=1)
        results = run_specs(plan.specs, **engine)
        assert all(r.ok for r in results)
        result = plan.assemble([r.result for r in results])
        return json.dumps(dataclasses.asdict(result), sort_keys=True)

    def test_figure_tables_are_byte_identical(self, tmp_path):
        serial = self.figure_json()
        cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        parallel = self.figure_json(jobs=2, cache=cache)
        warm_cache = ResultCache(root=tmp_path, fingerprint="f" * 64)
        warm = self.figure_json(jobs=2, cache=warm_cache)
        assert parallel == serial
        assert warm == serial
        assert warm_cache.session_stats()["hits"] == 2


class TestParallelExplore:
    def test_matches_serial_explorer_report(self):
        from repro.exec.explore import parallel_explore
        from repro.race.explorer import app_runner, explore
        from repro.units import MiB

        machine = dict(strategy="multi-io", cores=4,
                       mcdram=64 * MiB, ddr=256 * MiB)
        shapes = {
            "stencil": dict(total=64 * MiB, block=16 * MiB, iterations=1),
            "matmul": dict(working_set=48 * MiB, block_dim=64),
            # a non-zero matrix seed: the workers must get the same matrix
            "spmv": dict(block_rows=8, block_bytes=4 * MiB,
                         vector_bytes=256 * 1024, couplings=2,
                         iterations=1, seed=3),
        }
        for app, shape in shapes.items():
            params = {**machine, **shape}
            serial = explore(app_runner(app, params), schedules=2,
                             base_seed=0)
            report = parallel_explore(app, params, schedules=2,
                                      base_seed=0, jobs=2)
            assert report.render() == serial.render(), app
            assert report.ok == serial.ok
