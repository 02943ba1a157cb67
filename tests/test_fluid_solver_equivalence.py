"""Solver equivalence oracle + the sim-core numeric bugfix tests.

The ``"incremental"`` solver must be timeline-equivalent to the eager
``"full"`` oracle, down to byte-identical figure tables.  Alongside,
regression tests for the three PR bugfixes, each of which fails on the
pre-fix code:

* sub-epsilon remainders force-complete at the wake instant instead of
  being rescheduled (no late ``finished_at``, no zero-progress loop);
* rate-zero flows park with no wake (no inf/nan ETA), and cancelling a
  flow that completes at the exact cancel instant is a no-op instead of
  failing an already-succeeded event;
* cancelled event-queue entries are compacted instead of accumulating,
  and the live-entry count stays conserved.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.fluid import _EPSILON_BYTES, SOLVERS, FluidNetwork

ALL_SOLVERS = list(SOLVERS)


def _run_scenario(solver: str, scenario) -> dict[int, float]:
    """Run a scenario under one solver; map flow fid -> finished_at."""
    env = Environment()
    net = FluidNetwork(env, solver=solver)
    flows = scenario(env, net)
    env.run()
    return {f.fid: f.finished_at for f in flows}


# -- scenario builders: each returns the flows it started ------------------

def _waves_private_lanes(env, net):
    """Staggered waves over private link pairs (the contention shape)."""
    lanes = [(net.add_link(f"r{i}", 90e9 + i * 1e9),
              net.add_link(f"w{i}", 70e9 + i * 2e9)) for i in range(6)]
    flows = []

    def driver():
        for wave in range(3):
            for i, (r, w) in enumerate(lanes):
                flows.append(net.start_flow(
                    32e6 * (1 + (wave * 6 + i) % 5),
                    [r, w], weight=1.0 + (i % 3), max_rate=11e9))
            yield env.timeout(1e-3)

    env.process(driver())
    return flows


def _shared_bottleneck_capped(env, net):
    """Many flows over one shared pair, mixed caps and weights."""
    a = net.add_link("shared.a", 50e9)
    b = net.add_link("shared.b", 64e9)
    side = net.add_link("side", 10e9)
    flows = []
    for k in range(24):
        links = [a, b] if k % 3 else [a, b, side]
        flows.append(net.start_flow(
            16e6 * (1 + k % 7), links,
            weight=0.5 + (k % 4) * 0.75,
            max_rate=math.inf if k % 2 else 2e9 + k * 1e8))
    return flows


def _arrivals_and_cancels(env, net):
    """Flows arriving over time, some cancelled mid-flight."""
    l1 = net.add_link("x", 40e9)
    l2 = net.add_link("y", 40e9)
    flows = [net.start_flow(64e6 * (1 + k), [l1] if k % 2 else [l1, l2])
             for k in range(8)]
    doomed = net.start_flow(1e9, [l1, l2], weight=2.0)

    def canceller():
        yield env.timeout(2e-3)
        net.cancel_flow(doomed)
        flows.append(net.start_flow(48e6, [l2], max_rate=5e9))

    env.process(canceller())
    return flows


SCENARIOS = [_waves_private_lanes, _shared_bottleneck_capped,
             _arrivals_and_cancels]


class TestSolverEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda s: s.__name__.lstrip("_"))
    @pytest.mark.parametrize("solver", ["incremental"])
    def test_all_solvers_match_full_oracle(self, scenario, solver):
        oracle = _run_scenario("full", scenario)
        got = _run_scenario(solver, scenario)
        assert got.keys() == oracle.keys()
        for fid, finished_at in got.items():
            assert finished_at == pytest.approx(oracle[fid], rel=1e-9), fid

    def test_unknown_solver_rejected(self):
        assert SOLVERS == ("incremental", "full")
        assert FluidNetwork(Environment()).solver == "incremental"
        with pytest.raises(SimulationError, match="unknown fluid solver"):
            FluidNetwork(Environment(), solver="bogus")


class TestEpsilonForceComplete:
    """Bugfix 1: sub-epsilon remainders complete at the wake, on time."""

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_sub_epsilon_remainder_completes_now(self, solver):
        env = Environment()
        net = FluidNetwork(env, solver=solver)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(1000.0, [link])
        env.run(3.0)
        assert not flow.finished
        # Emulate float-drift leaving a sub-epsilon remainder, then re-arm:
        # pre-fix this schedules a wake for the residue and stamps
        # finished_at *later* than the true completion instant.
        flow.remaining = _EPSILON_BYTES / 2
        net._schedule_wake()
        assert flow.finished
        assert flow.finished_at == 3.0
        assert flow.done.triggered and flow.done.ok
        env.run()

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_sub_ulp_eta_does_not_spin(self, solver):
        """An ETA below one clock ulp force-completes instead of looping."""
        env = Environment()
        net = FluidNetwork(env, solver=solver)
        link = net.add_link("l", 1e16)
        env.run(1.0)
        # eta = 2e-3 / 1e16 = 2e-19; 1.0 + 2e-19 == 1.0 in float, so a
        # wake would fire at the same instant with dt == 0 forever
        flow = net.start_flow(2e-3, [link], max_rate=1e16)
        for _ in range(50):
            if flow.finished:
                break
            env.step()
        assert flow.finished
        assert flow.finished_at == 1.0


class TestZeroRateAndCancel:
    """Bugfix 2: rate-zero parking and cancel idempotence."""

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_zero_rate_flow_parks_without_wake(self, solver):
        env = Environment()
        net = FluidNetwork(env, solver=solver)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(1e6, [link], max_rate=0.0)
        env.run()  # must terminate: no inf/nan wake was scheduled
        assert not flow.finished
        assert flow.rate == 0.0
        assert net._wake_entry is None
        # the parked flow is still live and picked up by the next re-solve
        assert flow in net.active_flows
        net.cancel_flow(flow)
        env.run()
        assert flow.finished

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_cancel_at_exact_completion_instant_is_noop(self, solver):
        env = Environment()
        net = FluidNetwork(env, solver=solver)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(1000.0, [link])  # completes at t=10

        def canceller():
            # lands at t=10 *before* the fluid wake: cancel_flow's own
            # advance completes the flow; pre-fix the cancel then failed
            # the already-succeeded done event
            yield env.timeout(10.0)
            net.cancel_flow(flow)

        env.process(canceller())
        env.run()
        assert flow.finished
        assert flow.finished_at == 10.0
        assert flow.done.ok  # completed, not cancelled

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_cancel_after_finish_is_noop(self, solver):
        env = Environment()
        net = FluidNetwork(env, solver=solver)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(500.0, [link])
        env.run()
        assert flow.finished
        net.cancel_flow(flow)  # idempotent no-op
        net.cancel_flow(flow)
        assert flow.done.ok

    def test_bad_flow_parameters_rejected(self):
        env = Environment()
        net = FluidNetwork(env)
        link = net.add_link("l", 100.0)
        for kwargs in ({"nbytes": -1.0}, {"nbytes": math.nan},
                       {"weight": 0.0}, {"weight": math.nan},
                       {"max_rate": -1.0}, {"max_rate": math.nan}):
            params = {"nbytes": 1e6, "weight": 1.0, "max_rate": math.inf,
                      **kwargs}
            with pytest.raises(SimulationError):
                net.start_flow(params["nbytes"], [link],
                               weight=params["weight"],
                               max_rate=params["max_rate"])


class TestTombstoneCompaction:
    """Bugfix 3: dead entries are bounded; live-entry count is conserved."""

    def test_churned_cancellations_stay_bounded(self):
        env = Environment()
        keep = [env.schedule(Event(env, f"keep{i}"), delay=100.0 + i)
                for i in range(10)]
        for i in range(5000):
            entry = env.schedule(Event(env, "churn"), delay=50.0 + i * 1e-3)
            assert env.cancel(entry)
        assert env._live == 10
        assert env.live_entry_count() == 10
        # tombstones must have been compacted away, not accumulated: 5000
        # dead entries against 10 live ones must not survive
        assert env.stored_entry_count() <= 10 + 2 * 64 + 2
        assert len(keep) == 10
        env.run()
        assert env._live == 0
        assert env.live_entry_count() == 0

    def test_interleaved_cancel_conserves_live_count(self):
        env = Environment()
        entries = [env.schedule(Event(env, f"e{i}"), delay=float(i + 1))
                   for i in range(200)]
        for i, entry in enumerate(entries):
            if i % 3:
                assert env.cancel(entry)
        survivors = sum(1 for i in range(200) if not i % 3)
        assert env._live == survivors
        assert env.live_entry_count() == survivors
        env.run()
        assert env.now == pytest.approx(
            max(i + 1 for i in range(200) if not i % 3))
        assert env.live_entry_count() == env._live == 0

    def test_cancel_is_idempotent(self):
        env = Environment()
        entry = env.schedule(Event(env, "once"), delay=1.0)
        assert env.cancel(entry)
        assert not env.cancel(entry)
        assert env._live == 0


class TestFigureByteIdentity:
    """Incremental and the full oracle must emit byte-identical tables."""

    @staticmethod
    def _table_bytes(plan_fn, monkeypatch, solver: str) -> str:
        from repro.bench.harness import run_plan

        init = FluidNetwork.__init__

        def forced(self, env, **kwargs):
            init(self, env, **{**kwargs, "solver": solver})

        with monkeypatch.context() as patch:
            patch.setattr(FluidNetwork, "__init__", forced)
            result = run_plan(plan_fn())
        return json.dumps(dataclasses.asdict(result), sort_keys=True)

    def test_fig2_table_identical(self, monkeypatch):
        from repro.bench.experiments import Scale, fig2_plan

        def plan():
            return fig2_plan(Scale.TINY, iterations=2)

        inc = self._table_bytes(plan, monkeypatch, "incremental")
        full = self._table_bytes(plan, monkeypatch, "full")
        assert full == inc

    def test_fig8_table_identical(self, monkeypatch):
        from repro.bench.experiments import Scale, fig8_plan

        def plan():
            return fig8_plan(Scale.TINY, iterations=2, reduced_ws_gb=(4,))

        inc = self._table_bytes(plan, monkeypatch, "incremental")
        full = self._table_bytes(plan, monkeypatch, "full")
        assert full == inc
