"""Solver equivalence oracle + the sim-core numeric bugfix tests.

:class:`FluidNetwork` must be timeline-equivalent to the eager
:class:`EagerFluidNetwork` oracle, on hand-written scenarios, on random
flow scripts and down to byte-identical figure tables.  Alongside,
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

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event
from repro.sim.fluid import _EPSILON_BYTES, FluidNetwork
from tests import sim_oracle
from tests.fluid_oracle import EagerFluidNetwork, active_flows, cancel_flow

#: the shipped network and the eager oracle, under their solver names
SHIPPED = pytest.param(FluidNetwork, id="incremental")
ALL_NETWORKS = [SHIPPED, pytest.param(EagerFluidNetwork, id="full")]


def _run_scenario(network_cls, scenario) -> dict[int, float]:
    """Run a scenario on one network class; map flow fid -> finished_at."""
    env = Environment()
    net = network_cls(env)
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
        cancel_flow(net, doomed)
        flows.append(net.start_flow(48e6, [l2], max_rate=5e9))

    env.process(canceller())
    return flows


SCENARIOS = [_waves_private_lanes, _shared_bottleneck_capped,
             _arrivals_and_cancels]


class TestSolverEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda s: s.__name__.lstrip("_"))
    @pytest.mark.parametrize("network_cls", [SHIPPED])
    def test_all_solvers_match_full_oracle(self, scenario, network_cls):
        oracle = _run_scenario(EagerFluidNetwork, scenario)
        got = _run_scenario(network_cls, scenario)
        assert got.keys() == oracle.keys()
        for fid, finished_at in got.items():
            assert finished_at == pytest.approx(oracle[fid], rel=1e-9), fid


#: a random flow script: link capacities, then flows that arrive at one of
#: a few shared instants and may be cancelled some offset later
FLOW_SCRIPTS = st.fixed_dictionaries({
    "link_caps": st.lists(st.sampled_from([10e9, 40e9, 64e9, 90e9, 170e9]),
                          min_size=1, max_size=5),
    "flows": st.lists(
        st.fixed_dictionaries({
            "links": st.sets(st.integers(min_value=0, max_value=4),
                             min_size=1, max_size=3),
            "nbytes": st.floats(min_value=1e6, max_value=5e8),
            "weight": st.sampled_from([0.5, 1.0, 2.0, 3.0]),
            "cap": st.sampled_from([math.inf, 2e9, 12e9]),
            "arrive": st.sampled_from([0.0, 1e-3, 2.5e-3, 4e-3]),
            "cancel_after": st.one_of(
                st.none(), st.sampled_from([0.0, 3e-4, 1e-3, 5e-3])),
        }),
        min_size=1, max_size=12),
})


def _run_script(network_cls, script):
    """Replay a flow script; per flow, (done succeeded?, finished_at)."""
    env = Environment()
    net = network_cls(env)
    links = [net.add_link(f"l{i}", cap)
             for i, cap in enumerate(script["link_caps"])]
    actions = []  # (time, script order, flow index, start?)
    for k, spec in enumerate(script["flows"]):
        actions.append((spec["arrive"], 2 * k, k, True))
        if spec["cancel_after"] is not None:
            actions.append((spec["arrive"] + spec["cancel_after"],
                            2 * k + 1, k, False))
    actions.sort()
    flows = {}

    def driver():
        for at, _order, k, start in actions:
            if at > env.now:
                yield env.timeout(at - env.now)
            if start:
                spec = script["flows"][k]
                chosen = dict.fromkeys(links[i % len(links)]
                                       for i in sorted(spec["links"]))
                flows[k] = net.start_flow(spec["nbytes"], list(chosen),
                                          weight=spec["weight"],
                                          max_rate=spec["cap"])
            else:
                cancel_flow(net, flows[k])

    env.process(driver())
    env.run()
    return [(flows[k].done.ok, flows[k].finished_at)
            for k in range(len(script["flows"]))]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(script=FLOW_SCRIPTS)
def test_random_flow_scripts_match_oracle(script):
    got = _run_script(FluidNetwork, script)
    oracle = _run_script(EagerFluidNetwork, script)
    assert [ok for ok, _ in got] == [ok for ok, _ in oracle]
    for (_, finished_at), (_, expected) in zip(got, oracle):
        assert finished_at == pytest.approx(expected, rel=1e-9)


class TestEpsilonForceComplete:
    """Bugfix 1: sub-epsilon remainders complete at the wake, on time."""

    @pytest.mark.parametrize("network_cls", ALL_NETWORKS)
    def test_sub_epsilon_remainder_completes_now(self, network_cls):
        env = Environment()
        net = network_cls(env)
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

    @pytest.mark.parametrize("network_cls", ALL_NETWORKS)
    def test_sub_ulp_eta_does_not_spin(self, network_cls):
        """An ETA below one clock ulp force-completes instead of looping."""
        env = Environment()
        net = network_cls(env)
        link = net.add_link("l", 1e16)
        env.run(1.0)
        # eta = 2e-3 / 1e16 = 2e-19; 1.0 + 2e-19 == 1.0 in float, so a
        # wake would fire at the same instant with dt == 0 forever
        flow = net.start_flow(2e-3, [link], max_rate=1e16)
        for _ in range(50):
            if flow.finished:
                break
            sim_oracle.step(env)
        assert flow.finished
        assert flow.finished_at == 1.0


class TestZeroRateAndCancel:
    """Bugfix 2: rate-zero parking and cancel idempotence."""

    @pytest.mark.parametrize("network_cls", ALL_NETWORKS)
    def test_zero_rate_flow_parks_without_wake(self, network_cls):
        env = Environment()
        net = network_cls(env)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(1e6, [link], max_rate=0.0)
        env.run()  # must terminate: no inf/nan wake was scheduled
        assert not flow.finished
        assert flow.rate == 0.0
        assert net._wake_entry is None
        # the parked flow is still live and picked up by the next re-solve
        assert flow in active_flows(net)
        cancel_flow(net, flow)
        env.run()
        assert flow.finished

    @pytest.mark.parametrize("network_cls", ALL_NETWORKS)
    def test_cancel_at_exact_completion_instant_is_noop(self, network_cls):
        env = Environment()
        net = network_cls(env)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(1000.0, [link])  # completes at t=10

        def canceller():
            # lands at t=10 *before* the fluid wake: cancel_flow's own
            # advance completes the flow; pre-fix the cancel then failed
            # the already-succeeded done event
            yield env.timeout(10.0)
            cancel_flow(net, flow)

        env.process(canceller())
        env.run()
        assert flow.finished
        assert flow.finished_at == 10.0
        assert flow.done.ok  # completed, not cancelled

    @pytest.mark.parametrize("network_cls", ALL_NETWORKS)
    def test_cancel_after_finish_is_noop(self, network_cls):
        env = Environment()
        net = network_cls(env)
        link = net.add_link("l", 100.0)
        flow = net.start_flow(500.0, [link])
        env.run()
        assert flow.finished
        cancel_flow(net, flow)  # idempotent no-op
        cancel_flow(net, flow)
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


def _stored_entry_count(env: Environment) -> int:
    """Total parked entries including tombstones (leak diagnostics)."""
    if env._tie_break is not None:
        return len(env._keyed)
    n = len(env._agenda_urgent) + len(env._agenda_normal)
    for store in (env._buckets, env._urgent_buckets):
        for bucket in store.values():
            n += len(bucket)
    return n


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
        assert _stored_entry_count(env) <= 10 + 2 * 64 + 2
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
    """The shipped network and the eager oracle emit identical tables."""

    @staticmethod
    def _table_bytes(plan_fn, monkeypatch, network_cls) -> str:
        from repro.bench.harness import run_plan

        with monkeypatch.context() as patch:
            patch.setattr("repro.machine.node.FluidNetwork", network_cls)
            result = run_plan(plan_fn())
        return json.dumps(dataclasses.asdict(result), sort_keys=True)

    def test_fig2_table_identical(self, monkeypatch):
        from repro.bench.experiments import Scale, fig2_plan

        def plan():
            return fig2_plan(Scale.TINY, iterations=2)

        inc = self._table_bytes(plan, monkeypatch, FluidNetwork)
        full = self._table_bytes(plan, monkeypatch, EagerFluidNetwork)
        assert full == inc

    def test_fig8_table_identical(self, monkeypatch, fig8_tiny_plan,
                                  fig8_tiny_result):
        # the shipped-network run is the session-shared one
        # (tests/conftest.py); the oracle run stays here
        inc = json.dumps(dataclasses.asdict(fig8_tiny_result), sort_keys=True)
        full = self._table_bytes(fig8_tiny_plan, monkeypatch,
                                 EagerFluidNetwork)
        assert full == inc
