"""Flight recorder: cadence snapshots, ring capacity, clean stop."""

import pytest

from repro.errors import SimulationError
from repro.metrics import recorder
from repro.metrics.recorder import FlightRecorder, Snapshot
from repro.metrics.registry import MetricsRegistry
from repro.sim.environment import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def registry(env):
    return MetricsRegistry(clock=lambda: env.now)


class TestLifecycle:
    def test_start_takes_t0_snapshot(self, env, registry):
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()
        assert len(rec.snapshots) == 1
        assert rec.snapshots[0].time == 0.0
        rec.stop()

    def test_cadence_snapshots_on_sim_clock(self, env, registry):
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()
        env.run(until=0.55)
        # t=0 plus ticks at 0.1 .. 0.5
        assert rec.snapshots_taken == 6
        rec.stop()
        times = [s.time for s in rec.snapshots]
        assert times[1] == pytest.approx(0.1)
        assert times[-1] == pytest.approx(0.55)  # final stop() snapshot

    def test_stop_retires_the_process(self, env, registry):
        """stop() cancels the pending tick: nothing keeps the run going."""
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()
        env.run(until=0.25)
        tick = rec._tick
        rec.stop()
        taken = rec.snapshots_taken
        # the queue must drain: an unbounded run() returns because the
        # cadence tick no longer re-arms (the shutdown-hang hazard)
        env.run()
        assert tick._cancelled and not tick.processed
        assert env.now == pytest.approx(0.25)
        assert rec.snapshots_taken == taken

    def test_stop_is_idempotent(self, env, registry):
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()
        rec.stop()
        taken = rec.snapshots_taken
        rec.stop()
        assert rec.snapshots_taken == taken

    def test_double_start_rejected(self, env, registry):
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()
        with pytest.raises(SimulationError):
            rec.start()
        rec.stop()

    def test_bad_parameters_rejected(self, env, registry):
        with pytest.raises(SimulationError):
            FlightRecorder(env, registry.flatten, cadence=0.0)


class TestRing:
    def test_capacity_bounds_the_ring(self, env, registry, monkeypatch):
        monkeypatch.setattr(recorder, "CAPACITY", 4)
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()
        env.run(until=2.0)
        rec.stop()
        assert len(rec.snapshots) == 4
        assert rec.snapshots_taken > 4
        # oldest snapshots fell off the front
        assert rec.snapshots[0].time > 0.0

    def test_series_tracks_a_counter(self, env, registry):
        counter = registry.counter("repro_events_total")
        rec = FlightRecorder(env, registry.flatten, cadence=0.1).start()

        def bump():
            while True:
                yield env.timeout(0.1)
                counter.inc()

        env.process(bump(), name="bumper")
        env.run(until=0.35)
        rec.stop()
        points = [(snap.time, snap.values["repro_events_total"])
                  for snap in rec.snapshots]
        assert points[0] == (0.0, 0.0)
        assert points[-1][1] == 3.0


class TestCallbacks:
    def test_on_snapshot_receives_previous(self, env, registry):
        calls = []
        rec = FlightRecorder(env, registry.flatten, cadence=0.1,
                             on_snapshot=lambda s, p: calls.append((s, p)))
        rec.start()
        env.run(until=0.15)
        rec.stop()
        assert calls[0][1] is None             # t=0 has no predecessor
        assert isinstance(calls[1][1], Snapshot)
        assert calls[1][1] is calls[0][0]


class TestSnapshotHelpers:
    def test_get_with_default(self):
        snap = Snapshot(1.0, {"repro_a{x=\"1\"}": 2.0,
                              "repro_a{x=\"2\"}": 3.0, "repro_b": 7.0})
        assert snap.get("repro_b") == 7.0
        assert snap.get("missing", -1.0) == -1.0
