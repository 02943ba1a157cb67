"""An observer does not change whether, or when, a run ends.

The metrics flight recorder re-arms a cadence timeout forever.  Its
ticks are daemon timeouts (``Environment.daemon_timeout``) with a
snapshot callback, not a process: a run that drains, or deadlocks,
unobserved ends the same way, at the same instant and with the same
waiting processes, with a ``MetricsSession`` attached, under both drain
loops.  Each
observed run is bounded in simulated time by its own snapshot callback,
so a regression fails instead of hanging.
"""

from __future__ import annotations

import gc

import pytest

from repro.errors import DeadlockError
from repro.exec.apps import APPS, build
from repro.exec.spec import stable_seed
from repro.metrics import MetricsSession
from repro.metrics.recorder import FlightRecorder
from repro.obs import SpanTracer
from repro.race.explorer import SeededTieBreaker
from repro.sim.environment import Environment
from repro.units import GiB, MiB

#: STREAM under no-io deadlocks on this shape (every PE's head task is
#: parked with HBM full of partial fetches)
DEADLOCKING = {"strategy": "no-io", "cores": 8, "mcdram": 64 * MiB,
               "ddr": GiB, "array_bytes": 4 * MiB, "chares": 16,
               "repeats": 2}

#: no snapshot may be taken past this simulated time
BOUND_S = 1.0


class Overran(Exception):
    """The observed run went on past :data:`BOUND_S`."""


def _bounded(snapshot, previous):
    if snapshot.time > BOUND_S:
        raise Overran(f"observed run still going at t={snapshot.time:g}")


def _run_stream(observed: bool, replicate: int):
    env = Environment()
    if replicate:
        env.set_tie_breaker(
            SeededTieBreaker(stable_seed("replicate", replicate)))
    built = build(DEADLOCKING, env)
    entry = APPS["stream"]
    session = (MetricsSession(built, app="stream", cadence=0.01,
                              on_snapshot=_bounded) if observed else None)
    try:
        with pytest.raises(DeadlockError) as caught:
            entry.cls(built, entry.config(DEADLOCKING)).run()
    finally:
        if session is not None:
            session.on_snapshot = None
            session.finish()
    return caught.value, env.now, session


@pytest.mark.parametrize("replicate", [0, 1], ids=["fifo", "tie-breaker"])
def test_metrics_session_keeps_the_deadlock(replicate):
    bare, bare_now, _ = _run_stream(observed=False, replicate=replicate)
    seen, seen_now, session = _run_stream(observed=True,
                                          replicate=replicate)
    assert str(seen) == str(bare)
    assert seen_now == bare_now < BOUND_S
    # the recorder ticks by callback: it adds no waiting process
    assert seen.waiting == bare.waiting
    assert session.recorder.snapshots_taken >= 2


def _short_run(until):
    """A 45 ms process under a 10 ms recorder, run ``until`` one of
    ``"drained"``, ``"done"`` (the process) or a deadline."""
    env = Environment()

    def worker():
        yield env.timeout(0.045)

    done = env.process(worker())
    recorder = FlightRecorder(env, dict, cadence=0.01,
                              on_snapshot=_bounded).start()
    env.run(until={"drained": None, "done": done}.get(until, until))
    return env.now, recorder.snapshots_taken


@pytest.mark.parametrize("until", ["drained", "done"])
def test_a_run_ends_with_its_last_event(until):
    # t=0, then the ticks at 0.01 .. 0.04
    assert _short_run(until) == (0.045, 5)


def test_a_deadline_run_keeps_ticking():
    # t=0, then the ticks at 0.01 .. 0.09
    assert _short_run(0.095) == (0.095, 10)


#: a small stencil that runs for several recorder ticks
OBSERVED = {"strategy": "multi-io", "cores": 4, "mcdram": 32 * MiB,
            "ddr": 256 * MiB, "total": 64 * MiB, "block": 16 * MiB,
            "iterations": 2}


def _observed_stencil_left_in_garbage() -> list:
    """Run the stencil with the e2e benchmark's observers (a metrics
    session and a span tracer, installed after the build), end it as a
    spec run ends, with ``Environment.close()``, then remove the
    observers, and return what the cyclic collector would have to free."""
    env = Environment()
    built = build(OBSERVED, env)
    entry = APPS["stencil"]
    session = MetricsSession(built, app="stencil", cadence=1e-4)
    tracer = SpanTracer(env).install()
    try:
        entry.cls(built, entry.config(OBSERVED)).run()
    finally:
        env.close()
        tracer.uninstall()
        session.finish()
    assert session.recorder.snapshots_taken > 2
    del env, built, session, tracer
    gc.collect()
    return list(gc.garbage)


def test_an_observed_run_frees_by_refcount():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        garbage = _observed_stencil_left_in_garbage()
        environments = [o for o in garbage if isinstance(o, Environment)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert environments == []
