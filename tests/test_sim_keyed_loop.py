"""The tie-breaker heap and its keyed drain loop.

Under a tie-breaker every entry is ``(time, priority << 80 | key,
event)`` with ``key = jitter << 56 | seq`` (``seq`` alone past the
limit), and :func:`repro.sim.kernel.drain_keyed` pops it one event at a
time.  These tests pin the keys to the ``(jitter, seq)`` tuples they
replaced, URGENT-before-NORMAL on the keyed heap, the tombstone paths on
keyed entries, the ``run()`` stop rules, and — on small
stencil/matmul/spmv runs over seeds and limits — that the keyed loop
pops the same ``(time, key)`` sequence and returns the same results as
the one-event stepper in ``tests/sim_oracle.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import DeadlockError
from repro.exec.apps import APPS, build
from repro.race.explorer import SeededTieBreaker
from repro.sim import kernel
from repro.sim.environment import URGENT, Environment
from repro.sim.events import Event
from repro.units import GiB, MiB

from tests import sim_oracle

_SEQ_MASK = (1 << 56) - 1


def _tuple_keys(seed: int, limit: int | None, n: int) -> list[tuple]:
    """The ``(jitter, seq)`` keys the tuple-keyed heap used to draw."""
    rng = random.Random(seed)
    out = []
    for seq in range(n):
        jitter = rng.getrandbits(16) + 1
        out.append((0, seq) if limit is not None and seq >= limit
                   else (jitter, seq))
    return out


class TestIntKeys:
    @pytest.mark.parametrize("limit", [None, 0, 5, 50])
    @pytest.mark.parametrize("seed", [0, 1, 11])
    def test_keys_encode_the_tuple_keys(self, seed, limit):
        stream = SeededTieBreaker(seed, limit).keys()
        keys = [next(stream) for _ in range(200)]
        assert [(k >> 56, k & _SEQ_MASK) for k in keys] == \
            _tuple_keys(seed, limit, 200)

    @pytest.mark.parametrize("limit", [None, 0, 5, 50])
    def test_keys_sort_exactly_as_tuples(self, limit):
        stream = SeededTieBreaker(4, limit).keys()
        keys = [next(stream) for _ in range(200)]
        tuples = _tuple_keys(4, limit, 200)
        by_int = sorted(range(200), key=keys.__getitem__)
        by_tuple = sorted(range(200), key=tuples.__getitem__)
        assert by_int == by_tuple


def _keyed_env(seed: int = 0, limit: int | None = None) -> Environment:
    env = Environment()
    env.set_tie_breaker(SeededTieBreaker(seed, limit))
    return env


def _triggered(env: Environment, name: str, seen: list) -> Event:
    ev = Event(env, name=name)
    ev._ok, ev._value = True, name
    ev.add_callback(lambda e: seen.append((env.now, e.name)))
    return ev


class TestKeyedTombstones:
    def test_schedule_returns_the_event_and_cancel_skips_it(self):
        env = _keyed_env()
        seen: list = []
        doomed = _triggered(env, "doomed", seen)
        assert env.schedule(doomed, delay=1.0) is doomed
        env.schedule(_triggered(env, "kept", seen), delay=2.0)
        assert env.cancel(doomed) is True
        assert env.cancel(doomed) is False  # idempotent
        assert env._live == env.live_entry_count() == 1
        env.run()
        assert seen == [(2.0, "kept")]
        assert env._live == env.live_entry_count() == 0
        assert env._dead == 0 and not env._keyed

    def test_cancel_after_processing_is_a_no_op(self):
        env = _keyed_env()
        ev = _triggered(env, "done", [])
        env.schedule(ev, delay=1.0)
        env.run()
        assert env.cancel(ev) is False
        assert env._live == 0 and env._dead == 0

    def test_compaction_sweeps_keyed_tombstones(self):
        env = _keyed_env(3)
        seen: list = []
        live = [env.timeout(float(i + 1)) for i in range(10)]
        for ev in live:
            ev.add_callback(lambda e: seen.append(env.now))
        for i in range(300):
            env.cancel(env.timeout(0.5 + i))
        # swept whenever the dead outnumber the live past the floor
        assert len(env._keyed) <= 10 + 2 * 64 + 2
        assert env._live == env.live_entry_count() == 10
        env.run()
        assert seen == [float(i + 1) for i in range(10)]
        assert env._live == env.live_entry_count() == 0


class TestKeyedOrder:
    @pytest.mark.parametrize("seed", range(6))
    def test_urgent_runs_ahead_of_normal_at_the_same_instant(self, seed):
        env = _keyed_env(seed)
        seen: list = []
        for i in range(4):
            env.schedule(_triggered(env, f"n{i}", seen), delay=1.0)
        for i in range(4):
            env.schedule(_triggered(env, f"u{i}", seen), delay=1.0,
                         priority=URGENT)
        env.schedule(_triggered(env, "early", seen), delay=0.5)
        env.run()
        names = [name for _, name in seen]
        assert names[0] == "early"
        assert sorted(names[1:5]) == ["u0", "u1", "u2", "u3"]
        assert sorted(names[5:]) == ["n0", "n1", "n2", "n3"]


class TestKeyedRunStops:
    def test_run_until_float_processes_events_at_the_deadline(self):
        env = _keyed_env(5)
        fired: list = []
        for t in (1.0, 2.0, 3.0):
            env.timeout(t, t).add_callback(lambda e: fired.append(e.value))
        assert env.cancel(env.timeout(2.5))
        env.run(until=2.0)
        assert fired == [1.0, 2.0] and env.now == 2.0
        env.run(until=2.5)
        assert fired == [1.0, 2.0] and env.now == 2.5
        env.run()
        assert fired == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("seed", range(4))
    def test_run_until_event_stops_right_after_it(self, seed):
        env = _keyed_env(seed)
        seen: list = []
        events = [_triggered(env, name, seen) for name in "abcdef"]
        for ev in events:
            env.schedule(ev, delay=1.0)
        target = events[2]
        assert env.run(until=target) == "c"
        assert seen[-1] == (1.0, "c")
        assert env._live == len(events) - len(seen)
        env.run()
        # the stop point splits the one permuted order the stepper sees
        oracle = _keyed_env(seed)
        seen_o: list = []
        for ev in [_triggered(oracle, name, seen_o) for name in "abcdef"]:
            oracle.schedule(ev, delay=1.0)
        sim_oracle.run(oracle)
        assert seen == seen_o

    def test_run_until_unreachable_event_deadlocks(self):
        env = _keyed_env()
        never = env.event(name="never")

        def waiter():
            yield never

        env.process(waiter(), name="waiter")
        with pytest.raises(DeadlockError) as info:
            env.run(until=never)
        assert info.value.waiting == ("waiter",)


# -- whole app runs: keyed loop vs the one-event stepper ----------------------

_MACHINE = dict(strategy="multi-io", cores=8, mcdram=64 * MiB, ddr=GiB)
_SHAPES = {
    "stencil": dict(total=128 * MiB, block=16 * MiB, iterations=1),
    "matmul": dict(working_set=48 * MiB, block_dim=64),
    "spmv": dict(block_rows=8, block_bytes=4 * MiB, vector_bytes=256 * 1024,
                 couplings=2, iterations=1, seed=3),
}


def _app_run(app: str, seed: int, limit: int | None, monkeypatch,
             stepped: bool) -> tuple[list, dict, float]:
    """One app run; returns its popped ``(time, key)``s, results, end time."""
    popped: list = []

    def record(pop):
        def recording_pop(heap):
            entry = pop(heap)
            if not entry[2]._cancelled:
                popped.append(entry[:2])
            return entry
        return recording_pop

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_heappop", record(kernel._heappop))
        patch.setattr(sim_oracle, "heappop", record(sim_oracle.heappop))
        if stepped:
            patch.setattr(Environment, "run", sim_oracle.run)
        env = _keyed_env(seed, limit)
        params = {**_MACHINE, **_SHAPES[app]}
        entry = APPS[app]
        result = entry.cls(build(params, env), entry.config(params)).run()
        env.run()
    return popped, entry.result(result), env.now


@pytest.mark.parametrize("limit", [None, 0, 5, 50])
@pytest.mark.parametrize("seed", [1, 6])
@pytest.mark.parametrize("app", sorted(_SHAPES))
def test_keyed_loop_matches_stepper_on_app_runs(app, seed, limit,
                                                monkeypatch):
    popped, results, end = _app_run(app, seed, limit, monkeypatch, False)
    assert len(popped) > 100  # the run went through the keyed heap
    assert _app_run(app, seed, limit, monkeypatch, True) == (
        popped, results, end)
