"""Schedule explorer: seeded permutation, determinism, minimization."""

import pytest

from repro.errors import SimulationError
from repro.race.explorer import (SeededTieBreaker, app_runner, explore,
                                 minimize_schedule, replay, run_schedule)
from repro.sim.environment import Environment

from tests.test_race_detector import load_racy_strategy

SHAPE = dict(cores=8, mcdram=64 << 20, ddr=1 << 30, total=128 << 20,
             block=16 << 20, iterations=1)


def _keys(breaker: SeededTieBreaker, n: int) -> list[int]:
    stream = breaker.keys()
    return [next(stream) for _ in range(n)]


def _pairs(keys: list[int]) -> list[tuple[int, int]]:
    """Decode ``jitter << 56 | seq`` keys back into ``(jitter, seq)``."""
    return [(k >> 56, k & ((1 << 56) - 1)) for k in keys]


class TestSeededTieBreaker:
    def test_same_seed_same_keys(self):
        a = _keys(SeededTieBreaker(7), 50)
        b = _keys(SeededTieBreaker(7), 50)
        assert a == b

    def test_different_seeds_differ(self):
        a = _keys(SeededTieBreaker(7), 50)
        b = _keys(SeededTieBreaker(8), 50)
        assert a != b

    def test_keys_are_unique_and_jittered(self):
        breaker = SeededTieBreaker(3)
        keys = _keys(breaker, 100)
        assert len(set(keys)) == 100
        assert breaker.decisions == 100
        pairs = _pairs(keys)
        assert [seq for _, seq in pairs] == list(range(100))
        assert all(1 <= jitter <= 1 << 16 for jitter, _ in pairs)

    def test_limit_falls_back_to_fifo(self):
        breaker = SeededTieBreaker(3, limit=2)
        pairs = _pairs(_keys(breaker, 5))
        assert all(jitter >= 1 for jitter, _ in pairs[:2])
        assert pairs[2:] == [(0, 2), (0, 3), (0, 4)]
        assert breaker.decisions == 5

    def test_rng_stream_is_limit_independent(self):
        # the first `limit` decisions draw the same jitters whatever the
        # limit — the property replay tokens depend on
        full = _keys(SeededTieBreaker(9), 10)
        cut = _keys(SeededTieBreaker(9, limit=4), 10)
        assert cut[:4] == full[:4]


class TestTieBreakerHook:
    def test_requires_empty_queue(self):
        env = Environment()
        env.schedule(env.timeout(1.0))  # seed the queue with an int key
        with pytest.raises(SimulationError):
            env.set_tie_breaker(SeededTieBreaker(0))

    def test_permutes_same_instant_events(self):
        order = []

        def noter(env, tag):
            def gen():
                order.append(tag)
                return
                yield
            return gen()

        def run(seed):
            env = Environment()
            if seed is not None:
                env.set_tie_breaker(SeededTieBreaker(seed))
            for tag in range(8):
                env.process(noter(env, tag))
            env.run()
            return tuple(order), order.clear()

        fifo = run(None)[0]
        assert fifo == tuple(range(8))
        shuffles = {run(seed)[0] for seed in range(6)}
        assert any(s != fifo for s in shuffles)


class TestScheduleRuns:
    def test_clean_run_and_determinism(self):
        runner = app_runner("stencil", dict(strategy="multi-io", **SHAPE))
        a = run_schedule(runner, 11)
        b = run_schedule(runner, 11)
        assert not a.failed
        assert a.signature() == b.signature()
        assert a.decisions == b.decisions
        assert a.tasks_completed and a.tasks_completed > 0

    def test_outcome_render_shapes(self):
        runner = app_runner("stencil", dict(strategy="multi-io", **SHAPE))
        ok = run_schedule(runner, 1)
        assert "ok (" in ok.render() and "seed=1" in ok.render()

    def test_deadlock_detected_and_tagged_race303(self):
        from repro.sim.events import Event

        def deadlock_runner(env, rng):
            never = Event(env, name="never")

            def tick():
                yield env.timeout(1e-3)
            env.process(tick(), name="ticker")
            env.run(until=never)

        outcome = run_schedule(deadlock_runner, 0)
        assert outcome.error == "deadlock"
        assert outcome.failed
        assert any(v.rule == "RACE303" for v in outcome.san_violations)

    def test_crash_is_an_outcome_not_an_exception(self):
        def crashing_runner(env, rng):
            raise ValueError("boom")

        outcome = run_schedule(crashing_runner, 0)
        assert outcome.error == "ValueError"
        assert outcome.failed


class TestExplorationOfSeededBug:
    @pytest.fixture(scope="class")
    def racy_runner(self):
        return app_runner("stencil",
                          dict(strategy=load_racy_strategy(), **SHAPE))

    def test_explorer_finds_minimizes_and_replays(self, racy_runner):
        report = explore(racy_runner, schedules=2, base_seed=0)
        assert report.failing, report.render()
        token = report.minimized
        assert token is not None and token.failed
        assert "minimized replay token" in report.render()
        # the (seed, limit) token replays the same failure, byte for byte
        again = replay(racy_runner, token)
        assert again.failed
        assert again.signature() == token.signature()

    def test_minimized_limit_is_minimal_under_probe(self, racy_runner):
        failing = run_schedule(racy_runner, 0)
        assert failing.failed
        token = minimize_schedule(racy_runner, failing)
        assert token.limit is not None
        assert token.limit <= failing.decisions

    def test_exploration_of_clean_strategy_reports_ok(self):
        runner = app_runner("stencil", dict(strategy="multi-io", **SHAPE))
        report = explore(runner, schedules=2, base_seed=0)
        assert report.ok and report.minimized is None
        assert "0 failing" in report.render()
