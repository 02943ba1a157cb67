"""Loop equivalence: the drain loops against the one-event stepper.

Every ``run()`` flavour — unbounded, ``until=<Event>`` and
``until=<float>`` — goes through :func:`repro.sim.kernel.drain`, or
:func:`repro.sim.kernel.drain_keyed` under a tie-breaker, while
:func:`tests.sim_oracle.step` processes one event at a time with the
plain callback dispatch.  The tests drive one mixed workload
(stores, a gate, timeouts, conditions, interrupts, mid-run spawns,
failures) with each flavour, with and without a seeded tie-breaker, and
require the trace of the step-only oracle, then pin down the stop
conditions: the target's same-instant followers stay queued, probe
subscribers added mid-run see every later event, and an unhandled
failure leaves the rest of its batch queued in order.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import DeadlockError, ProcessKilled
from repro import hooks as _probe
from repro.race.explorer import SeededTieBreaker
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.resources import Store
from repro.sim.sync import Gate

from tests import sim_oracle

INF = float("inf")


def _mixed_workload(env: Environment) -> tuple[list, list]:
    """A workload touching every dispatch path.

    Returns ``(trace, slices)``: the trace the processes append to as the
    run proceeds, and the processes a chained ``run(until=<Event>)``
    driver can stop at (every process that finishes successfully).
    """
    trace: list = []
    store: Store = Store(env, name="s")
    spill: Store = Store(env, name="spill")
    # a two-token pool: get() acquires a slot, put() hands it back
    slots: Store = Store(env, name="slots")
    slots.put("t0")
    slots.put("t1")
    gate = Gate(env, name="g")

    def producer():
        for k in range(6):
            store.put(k)
            yield env.timeout(1.0)
        spill.put("late")

    def consumer(tag):
        while True:
            item = yield store.get()
            trace.append((env.now, tag, "got", item))
            if item >= 4:
                return item
            token = yield slots.get()
            yield env.timeout(0.25)
            slots.put(token)

    def condition_waiter():
        got = yield env.all_of([spill.get(), env.timeout(9.0)])
        trace.append((env.now, "cond", sorted(map(str, got.values()))))

    def gate_waiter():
        got = yield env.all_of([gate.wait(), env.timeout(2.5, "quick")])
        trace.append((env.now, "gate", sorted(map(str, got.values()))))

    def gate_opener():
        yield env.timeout(1.25)
        gate.open()

    def crasher():
        yield env.timeout(3.0)
        raise RuntimeError("boom")

    def guardian():
        victim = env.process(crasher(), name="crasher")
        try:
            yield victim
        except RuntimeError as exc:
            trace.append((env.now, "guard", str(exc)))

    def interrupter():
        target = env.process(sleeper(), name="sleeper")
        yield env.timeout(1.5)
        sim_oracle.interrupt(target, "wake")

    def sleeper():
        try:
            yield env.timeout(40.0)
        except ProcessKilled as exc:
            trace.append((env.now, "killed", str(exc)))

    def spawner():
        # URGENT bootstraps arriving mid-batch preempt the rest of it
        yield env.timeout(2.0)
        for i in range(3):
            env.process(late_child(i), name=f"late{i}")
            yield env.timeout(0.0)

    def late_child(i):
        yield env.timeout(0.5)
        trace.append((env.now, "late", i))

    def canceller():
        doomed = env.timeout(7.0)
        kept = env.timeout(0.75)
        assert env.cancel(doomed)
        got = yield kept
        trace.append((env.now, "cancel", got))

    def chain_parent():
        child = env.process(chain_child(), name="chain-child")
        value = yield child
        trace.append((env.now, "chain", value))

    def chain_child():
        yield env.timeout(4.5)
        return "child-done"

    slices = [env.process(consumer(f"c{i}"), name=f"c{i}") for i in range(2)]
    for fn in (producer, condition_waiter, gate_waiter, gate_opener,
               guardian, interrupter, spawner, canceller, chain_parent):
        slices.append(env.process(fn(), name=fn.__name__))
    return trace, slices


def _drive_run(env: Environment, slices: list) -> None:
    env.run()


def _drive_step(env: Environment, slices: list) -> None:
    sim_oracle.run(env)


def _drive_until_event(env: Environment, slices: list) -> None:
    for proc in slices:
        env.run(until=proc)
    env.run()


def _drive_until_float(env: Environment, slices: list) -> None:
    t = 0.0
    while sim_oracle.peek(env) < INF:
        t += 0.25
        env.run(until=t)


DRIVERS = [
    pytest.param(_drive_step, id="reference"),
    pytest.param(_drive_until_event, id="until-event"),
    pytest.param(_drive_until_float, id="until-float"),
]


def _traced(drive, breaker=None) -> tuple[list, Environment]:
    env = Environment()
    if breaker is not None:
        env.set_tie_breaker(breaker)
    trace, slices = _mixed_workload(env)
    drive(env, slices)
    return trace, env


@pytest.mark.parametrize("drive", DRIVERS)
def test_all_loop_modes_produce_identical_traces(drive) -> None:
    reference, _ = _traced(_drive_run)
    assert reference  # the workload actually did something
    got, _ = _traced(drive)
    assert got == reference


@pytest.mark.parametrize("limit", [None, 0, 5, 50])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("drive", [_drive_run, *DRIVERS[1:]],
                         ids=["run", "until-event", "until-float"])
def test_keyed_loop_matches_step_oracle(drive, seed, limit) -> None:
    reference, oracle_env = _traced(_drive_step,
                                    SeededTieBreaker(seed, limit))
    assert reference
    got, env = _traced(drive, SeededTieBreaker(seed, limit))
    assert got == reference
    assert env.now == oracle_env.now
    assert env._live == env.live_entry_count() == 0


def test_live_counter_exact_after_kernel_run() -> None:
    for drive in (_drive_run, _drive_step, _drive_until_event,
                  _drive_until_float):
        _, env = _traced(drive)
        assert env._live == env.live_entry_count() == 0


def _same_instant_events(env: Environment, names: str,
                         seen: list) -> list[Event]:
    events = [env.event(name=name) for name in names]
    for ev in events:
        ev.add_callback(lambda e: seen.append((env.now, e.name)))
    return events


def _due_events(env: Environment, names: str, seen: list,
                delay: float) -> list[Event]:
    """One timeout per name, all due ``delay`` from now, in name order."""
    events = [env.timeout(delay, name) for name in names]
    for ev in events:
        ev.add_callback(lambda e: seen.append((env.now, e.value)))
    return events


@pytest.mark.parametrize("delay", [0.0, 2.0])
def test_run_until_target_stops_before_same_instant_followers(delay) -> None:
    env = Environment()
    seen: list = []
    a, target, b, c = _due_events(env, "atbc", seen, delay)
    assert env.run(until=target) == "t"
    assert seen == [(delay, "a"), (delay, "t")]
    assert not b.processed and not c.processed
    assert env.now == delay
    env.run()
    assert [name for _, name in seen] == ["a", "t", "b", "c"]

    # the step oracle stops at the same point
    oracle = Environment()
    seen_o: list = []
    events = _due_events(oracle, "atbc", seen_o, delay)
    while not events[1].processed:
        sim_oracle.step(oracle)
    assert seen_o == [(delay, "a"), (delay, "t")]


def test_run_until_unreachable_event_deadlocks() -> None:
    env = Environment()
    never = env.event(name="never")

    def waiter():
        yield never

    env.process(waiter(), name="waiter")
    with pytest.raises(DeadlockError) as info:
        env.run(until=never)
    assert info.value.waiting == ("waiter",)


@pytest.mark.parametrize("tombstone", [False, True],
                         ids=["clean", "tombstone"])
def test_run_until_float_processes_events_at_the_deadline(tombstone) -> None:
    env = Environment()
    fired: list = []
    for t in (1.0, 2.0, 3.0):
        env.timeout(t, t).add_callback(lambda e: fired.append(e.value))
    if tombstone:  # a cancelled entry sends the clock down its slow path
        assert env.cancel(env.timeout(2.5))
    env.run(until=2.0)
    assert fired == [1.0, 2.0]
    assert env.now == 2.0
    env.run(until=2.5)
    assert fired == [1.0, 2.0] and env.now == 2.5
    env.run()
    assert fired == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("drive", [_drive_run, _drive_step],
                         ids=["run", "reference"])
def test_urgent_bootstrap_preempts_rest_of_batch(drive) -> None:
    env = Environment()
    order: list = []

    def child():
        order.append("child")
        yield env.timeout(0.0)

    def spawn(_event):
        env.process(child(), name="child")
        order.append("spawner")

    first, second = env.event(), env.event()
    first.add_callback(spawn)
    second.add_callback(lambda e: order.append("second"))
    first.succeed()
    second.succeed()
    drive(env, [])
    assert order == ["spawner", "child", "second"]


class _Recorder:
    """A probe subscriber recording the two points the fused path skips."""

    def __init__(self, env: Environment):
        self.env = env
        self.processed: list = []
        self.resumed: list = []

    def on_processing(self, event: Event) -> None:
        self.processed.append(event)

    def on_resume(self, process, event: Event) -> None:
        self.resumed.append((self.env.now, process.name))


class _ResumeOnly:
    """Subscribes to ``on_resume`` alone: the loop must still unfuse."""

    def __init__(self, env: Environment):
        self.env = env
        self.resumed: list = []

    def on_resume(self, process, event: Event) -> None:
        self.resumed.append((self.env.now, process.name))


def _run_with_mid_run_subscriber(env: Environment, subscriber) -> list:
    resumes: list = []

    def ticker(name, period):
        while env.now < 6.0:
            ev = env.timeout(period)
            yield ev
            resumes.append((env.now, name, ev))
            if name == "installer" and env.now == 2.0:
                _probe.subscribe(subscriber)  # mid-batch, inside a process

    for name, period in (("installer", 1.0), ("fast", 0.5), ("slow", 1.5)):
        env.process(ticker(name, period), name=name)
    try:
        env.run()
    finally:
        _probe.unsubscribe(subscriber)
    assert _probe.on_processing is None and _probe.on_resume is None
    later = [(t, name, ev) for t, name, ev in resumes if t > 2.0]
    assert len(later) > 6
    return later


def test_tracker_installed_mid_run_sees_every_later_event() -> None:
    env = Environment()
    recorder = _Recorder(env)
    later = _run_with_mid_run_subscriber(env, recorder)
    # the subscriber takes over at the next batch: everything after the
    # subscription instant goes through on_processing / on_resume
    processed = {id(ev) for ev in recorder.processed}
    for t, name, ev in later:
        assert (t, name) in recorder.resumed
        assert id(ev) in processed


def test_resume_only_subscriber_unfuses_the_loop() -> None:
    env = Environment()
    recorder = _ResumeOnly(env)
    later = _run_with_mid_run_subscriber(env, recorder)
    for t, name, _ev in later:
        assert (t, name) in recorder.resumed


def test_failure_splicing_resumes_at_next_event() -> None:
    def scenario(drive_one):
        env = Environment()
        seen: list = []
        first, boom, after = _same_instant_events(env, "fxa", seen)
        first.succeed()
        boom.fail(ValueError("unhandled"))
        after.succeed()
        with pytest.raises(ValueError, match="unhandled"):
            drive_one(env)
        assert not after.processed
        drive_one(env)
        return seen

    def drive_run(env):
        env.run()

    assert scenario(drive_run) == scenario(sim_oracle.run) == [
        (0.0, "f"), (0.0, "x"), (0.0, "a")]


def test_process_crash_surfaces_then_run_continues() -> None:
    env = Environment()
    out: list = []

    def crasher():
        yield env.timeout(1.0)
        raise ValueError("crashed")

    def survivor():
        yield env.timeout(1.0)
        yield env.timeout(1.0)
        out.append(env.now)

    env.process(crasher())
    env.process(survivor())
    with pytest.raises(ValueError, match="crashed"):
        env.run()
    env.run()
    assert out == [2.0]
    assert env._live == env.live_entry_count() == 0


def _canon(result) -> bytes:
    return json.dumps(dataclasses.asdict(result), sort_keys=True,
                      default=repr).encode()


def test_fig2_fig8_tables_byte_identical_kernel_on_off(
        monkeypatch, fig8_tiny_plan, fig8_tiny_result) -> None:
    """Figure tables through the kernel equal the step-driven oracle's."""
    from repro.bench.experiments import Scale, fig2_plan
    from repro.bench.harness import run_plan

    plans = (lambda: fig2_plan(Scale.TINY, iterations=2), fig8_tiny_plan)
    # the fig8 kernel run is the session-shared one (tests/conftest.py)
    kernel = [_canon(run_plan(plans[0]())), _canon(fig8_tiny_result)]
    monkeypatch.setattr(Environment, "run", sim_oracle.run)
    assert [_canon(run_plan(plan())) for plan in plans] == kernel
