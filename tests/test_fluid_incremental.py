"""Deferred component-local solving vs the eager oracle: same timelines.

The contract: batching same-instant changes into one solve and solving
only the touched component is a pure wall-clock optimisation — every
simulated quantity (completion instants, rates, application run times)
must match :class:`EagerFluidNetwork`.  Exact bit-equality is not
required (component-local solves change float summation order), so
comparisons use a tight relative tolerance.
"""

import math

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.bench.harness import Scale
from repro.core.api import OOCRuntimeBuilder
from repro.errors import SimulationError
from repro.machine.knl import build_knl
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from repro.units import GiB
from tests.fluid_oracle import EagerFluidNetwork, cancel_flow

REL = 1e-9


def _synthetic_run(network_cls, *, lanes=6, flows_per_lane=3, shared=True):
    """A mixed workload: per-lane private links plus an optional shared
    link coupling half the lanes; staggered arrivals and departures.

    Returns (finish times by fid, sampled (time, rates) trace, end time).
    """
    env = Environment()
    net = network_cls(env)
    shared_link = net.add_link("shared", 50e9) if shared else None
    finish = {}
    samples = []
    all_flows = []

    def driver():
        for wave in range(3):
            for i in range(lanes):
                read = net.link(f"l{i}.read")
                for j in range(flows_per_lane):
                    links = [read]
                    if shared_link is not None and i % 2 == 0:
                        links.append(shared_link)
                    nbytes = 96e6 * (1 + ((wave + i + j) % 5) / 5)
                    cap = 9e9 if j == 0 else math.inf
                    all_flows.append(
                        net.start_flow(nbytes, links, weight=1 + j,
                                       max_rate=cap))
                yield env.timeout(1e-3)  # staggered arrivals
            # sample mid-wave rates
            samples.append((env.now,
                            [f.rate for f in all_flows if not f.finished]))
            yield env.timeout(5e-3)

    for i in range(lanes):
        net.add_link(f"l{i}.read", 80e9)
    env.process(driver(), name="driver")
    env.run()
    for f in all_flows:
        finish[f.fid] = f.finished_at
    return finish, samples, env.now


@pytest.mark.parametrize("shared", [True, False])
def test_synthetic_timeline_equivalence(shared):
    full = _synthetic_run(EagerFluidNetwork, shared=shared)
    inc = _synthetic_run(FluidNetwork, shared=shared)
    assert inc[2] == pytest.approx(full[2], rel=REL)
    assert set(inc[0]) == set(full[0])
    for fid, t in full[0].items():
        assert inc[0][fid] == pytest.approx(t, rel=REL), f"flow {fid}"
    for (t_full, rates_full), (t_inc, rates_inc) in zip(full[1], inc[1]):
        assert t_inc == pytest.approx(t_full, rel=REL)
        assert rates_inc == pytest.approx(rates_full, rel=REL)


def _contention_run(network_cls, *, pes=8, flows_per_pe=2, waves=2):
    """Private per-PE port pairs, synchronized waves of capped flows."""
    env = Environment()
    net = network_cls(env)
    lanes = [(net.add_link(f"pe{i}.read", 100e9),
              net.add_link(f"pe{i}.write", 80e9)) for i in range(pes)]
    for _wave in range(waves):
        dones = []
        for i, lane in enumerate(lanes):
            for j in range(flows_per_pe):
                # distinct sizes => staggered departures, each a rate change
                nbytes = 256e6 * (1.0 + ((i * flows_per_pe + j) % 7) / 7.0)
                dones.append(net.start_flow(nbytes, lane, max_rate=12e9).done)
        env.run(env.all_of(dones))
    return env.now, net.solves


def test_solvers_agree_on_solve_counts():
    """Batching and component-local solves do strictly less solving work."""
    t_full, solves_full = _contention_run(EagerFluidNetwork)
    t_inc, solves_inc = _contention_run(FluidNetwork)
    assert t_inc == pytest.approx(t_full, rel=REL)
    assert solves_inc < solves_full


def _fig7_style_run(network_cls, monkeypatch, *, threads=64):
    """The Figure 7 shape: 64 concurrent movers DDR->HBM on one node."""
    monkeypatch.setattr("repro.machine.node.FluidNetwork", network_cls)
    env = Environment()
    node = build_knl(env, mcdram_capacity=Scale.SMALL.mcdram,
                     ddr_capacity=Scale.SMALL.ddr)
    assert type(node.network) is network_cls
    per_thread = Scale.SMALL.size(2 * GiB) // threads
    blocks = []
    for i in range(threads):
        block = node.registry.declare(f"mig{i}", per_thread)
        node.topology.place_block(block, node.ddr)
        blocks.append(block)
    done = [env.process(node.mover.move(b, node.hbm), name=f"mv{i}")
            for i, b in enumerate(blocks)]
    env.run(env.all_of(done))
    return env.now, node.network.solves


def test_fig7_memcpy_timeline_equivalence(monkeypatch):
    t_full, solves_full = _fig7_style_run(EagerFluidNetwork, monkeypatch)
    t_inc, solves_inc = _fig7_style_run(FluidNetwork, monkeypatch)
    assert t_inc == pytest.approx(t_full, rel=REL)
    # ... and the shipped network actually solves less
    assert solves_inc < solves_full


def _fig8_style_run(network_cls, monkeypatch):
    """A shrunk Figure 8 point: Stencil3D under the multi-io strategy."""
    monkeypatch.setattr("repro.machine.node.FluidNetwork", network_cls)
    built = OOCRuntimeBuilder(
        "multi-io", cores=8,
        mcdram_capacity=Scale.SMALL.mcdram // 8,
        ddr_capacity=Scale.SMALL.ddr // 8).build()
    assert type(built.machine.network) is network_cls
    cfg = StencilConfig(total_bytes=Scale.SMALL.size(4 * GiB),
                        block_bytes=Scale.SMALL.size(4 * GiB) // 16,
                        iterations=2)
    result = Stencil3D(built, cfg).run()
    return result.total_time, built.machine.network.solves


def test_fig8_stencil_timeline_equivalence(monkeypatch):
    t_full, solves_full = _fig8_style_run(EagerFluidNetwork, monkeypatch)
    t_inc, solves_inc = _fig8_style_run(FluidNetwork, monkeypatch)
    assert t_inc == pytest.approx(t_full, rel=REL)
    assert solves_inc < solves_full


class TestIncrementalMechanics:
    def test_same_instant_arrivals_batch_into_one_solve(self):
        env = Environment()
        net = FluidNetwork(env)
        link = net.add_link("l", 10e9)
        flows = [net.start_flow(1e9, [link]) for _ in range(16)]
        env.run(env.all_of([f.done for f in flows]))
        # one solve for the 16 same-instant arrivals; the joint departure
        # empties the component, which needs no solve at all
        assert net.solves == 1

    def test_rates_readable_before_running(self):
        """Reading .rate settles the deferred solve (no stale zeros)."""
        env = Environment()
        net = FluidNetwork(env)
        link = net.add_link("l", 10e9)
        a = net.start_flow(1e9, [link])
        b = net.start_flow(1e9, [link])
        assert a.rate == pytest.approx(5e9)
        assert b.rate == pytest.approx(5e9)
        assert link.utilization == pytest.approx(1.0)

    def test_untouched_component_not_resolved(self):
        """A change on one lane must not re-solve independent lanes."""
        env = Environment()
        net = FluidNetwork(env)
        l0 = net.add_link("l0", 10e9)
        l1 = net.add_link("l1", 10e9)
        a = net.start_flow(1e9, [l0])
        a2 = net.start_flow(40e9, [l0])
        b = net.start_flow(50e9, [l1])
        assert a.rate == pytest.approx(5e9)
        solves_before = net.solves
        env.run(a.done)  # departure on lane 0 only
        # reading a rate settles the deferred post-departure solve: exactly
        # one (lane 0's component shrinking to one flow); lane 1's flow
        # kept its rate without being re-solved
        assert a2.rate == pytest.approx(10e9)
        assert b.rate == pytest.approx(10e9)
        assert net.solves == solves_before + 1

    def test_cancel_mid_flight_matches_full(self):
        def run(network_cls):
            env = Environment()
            net = network_cls(env)
            link = net.add_link("l", 10e9)
            keep = net.start_flow(20e9, [link])
            victim = net.start_flow(20e9, [link])

            def killer():
                yield env.timeout(1.0)
                cancel_flow(net, victim)

            env.process(killer(), name="killer")
            with pytest.raises(SimulationError):
                env.run(victim.done)
            env.run(keep.done)
            return env.now, keep.finished_at

        assert run(FluidNetwork) == pytest.approx(run(EagerFluidNetwork),
                                                  rel=REL)
