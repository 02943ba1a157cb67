"""Unit tests for generator-based processes."""

import pytest

from repro import hooks as probe
from repro.errors import ProcessKilled, SimulationError
from repro.race.explorer import SeededTieBreaker
from repro.sim.environment import Environment
from tests.sim_oracle import interrupt


@pytest.fixture
def env():
    return Environment()


class TestProcessBasics:
    def test_runs_and_returns_value(self, env):
        def body(env):
            yield env.timeout(1.0)
            return "result"

        proc = env.process(body(env))
        env.run()
        assert proc.value == "result"
        assert proc.triggered

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_process_waits_on_process(self, env):
        def child(env):
            yield env.timeout(2.0)
            return 7

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        parent_proc = env.process(parent(env))
        env.run()
        assert parent_proc.value == 14

    def test_yielding_non_event_raises(self, env):
        def body(env):
            yield "not an event"

        env.process(body(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_surfaces(self, env):
        def body(env):
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(body(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_parent_can_catch_child_exception(self, env):
        def child(env):
            yield env.timeout(1.0)
            raise ValueError("child failed")

        def parent(env):
            try:
                yield env.process(child(env))
            except ValueError:
                return "caught"
            return "missed"

        proc = env.process(parent(env))
        env.run()
        assert proc.value == "caught"

    def test_two_processes_interleave_deterministically(self, env):
        log = []

        def worker(env, name, delay):
            for i in range(3):
                yield env.timeout(delay)
                log.append((name, env.now))

        env.process(worker(env, "a", 1.0))
        env.process(worker(env, "b", 1.5))
        env.run()
        # At t=3.0 both fire; b's timeout was scheduled earlier (at t=1.5
        # vs a's at t=2.0), so b resumes first: same-time order is
        # scheduling order, deterministically.
        assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
                       ("a", 3.0), ("b", 4.5)]


class TestInterrupt:
    def test_interrupt_kills_process(self, env):
        def body(env):
            yield env.timeout(100.0)

        proc = env.process(body(env))
        env.timeout(1.0).add_callback(lambda e: interrupt(proc, "stop"))
        env.run()
        assert proc.triggered

    def test_interrupt_can_be_handled(self, env):
        def body(env):
            try:
                yield env.timeout(100.0)
            except ProcessKilled:
                return "cleaned up"

        proc = env.process(body(env))
        env.timeout(1.0).add_callback(lambda e: interrupt(proc))
        env.run()
        assert proc.value == "cleaned up"

    def test_interrupt_finished_process_is_noop(self, env):
        def body(env):
            yield env.timeout(1.0)
            return 1

        proc = env.process(body(env))
        env.run()
        interrupt(proc)  # must not raise
        assert proc.value == 1


class TestDiagnostics:
    def test_active_process_names(self, env):
        def body(env):
            yield env.event()

        env.process(body(env), name="alpha")
        env.process(body(env), name="beta")
        env.run()
        assert env.active_process_names == ("alpha", "beta")


class _ResumeCounter:
    """An ``on_resume`` subscriber: binding it turns the fused path off."""

    def __init__(self):
        self.resumes = 0

    def on_resume(self, process, event):
        self.resumes += 1


class TestActiveProcess:
    """``env.active_process`` names the process whose generator runs."""

    @staticmethod
    def _spawn(env):
        seen = []

        def body(name):
            seen.append((name, env.active_process))
            yield env.timeout(1.0)
            seen.append((name, env.active_process))
            try:
                yield env.event().fail(RuntimeError("thrown in"))
            except RuntimeError:
                seen.append((name, env.active_process))
            yield env.timeout(0.0)
            seen.append((name, env.active_process))

        procs = {name: env.process(body(name), name=name)
                 for name in ("a", "b")}
        return seen, procs

    @staticmethod
    def _check(env, seen, procs):
        assert len(seen) == 8
        assert all(active is procs[name] for name, active in seen)
        assert env.active_process is None

    def test_none_outside_run(self, env):
        assert env.active_process is None
        seen, procs = self._spawn(env)
        assert env.active_process is None
        env.run(until=0.5)
        assert env.active_process is None
        env.run()
        self._check(env, seen, procs)

    def test_none_inside_plain_event_callbacks(self, env):
        seen = []
        late = env.event()

        def body():
            yield env.timeout(1.0)
            late.succeed()   # its callbacks run later, from the loop
            yield env.timeout(1.0)

        env.process(body())
        env.timeout(0.5).add_callback(
            lambda event: seen.append(env.active_process))
        late.add_callback(lambda event: seen.append(env.active_process))
        env.run()
        assert seen == [None, None]

    def test_fused_path(self, env):
        seen, procs = self._spawn(env)
        env.run()
        self._check(env, seen, procs)

    def test_generic_path(self, env):
        counter = _ResumeCounter()
        probe.subscribe(counter)
        try:
            seen, procs = self._spawn(env)
            env.run()
        finally:
            probe.unsubscribe(counter)
        assert counter.resumes > 0
        self._check(env, seen, procs)

    def test_tie_breaker_step_mode(self, env):
        env.set_tie_breaker(SeededTieBreaker(0))
        seen, procs = self._spawn(env)
        env.run()
        self._check(env, seen, procs)

    @pytest.mark.parametrize("observed", [False, True])
    def test_cleared_when_the_generator_raises(self, env, observed):
        counter = _ResumeCounter()

        def body():
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(body())
        if observed:
            probe.subscribe(counter)
        try:
            with pytest.raises(ValueError):
                env.run()
        finally:
            probe.unsubscribe(counter)
        assert env.active_process is None

    def test_cleared_after_an_interrupt(self, env):
        def victim():
            yield env.timeout(10.0)

        def killer(target):
            yield env.timeout(1.0)
            interrupt(target, "stop")

        target = env.process(victim())
        env.process(killer(target))
        env.run()
        assert isinstance(target.value, ProcessKilled)
        assert env.active_process is None
