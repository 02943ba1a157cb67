"""Unit + property tests for the max-min fair fluid bandwidth model."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.fluid import _EPSILON_BYTES, FluidNetwork
from tests.fluid_oracle import active_flows, cancel_flow


def make_net(*caps):
    env = Environment()
    net = FluidNetwork(env)
    for i, cap in enumerate(caps):
        net.add_link(f"l{i}", cap)
    return env, net


class TestSingleLink:
    def test_lone_flow_gets_full_capacity(self):
        env, net = make_net(100.0)
        flow = net.start_flow(50.0, ["l0"])
        env.run(until=flow.done)
        assert env.now == pytest.approx(0.5)

    def test_equal_flows_share_equally(self):
        env, net = make_net(100.0)
        flows = [net.start_flow(50.0, ["l0"]) for _ in range(2)]
        env.run()
        assert all(f.finished_at == pytest.approx(1.0) for f in flows)

    def test_weighted_sharing(self):
        env, net = make_net(90.0)
        heavy = net.start_flow(60.0, ["l0"], weight=2.0)   # rate 60
        light = net.start_flow(30.0, ["l0"], weight=1.0)   # rate 30
        env.run()
        assert heavy.finished_at == pytest.approx(1.0)
        assert light.finished_at == pytest.approx(1.0)

    def test_max_rate_cap_honoured(self):
        env, net = make_net(1000.0)
        flow = net.start_flow(10.0, ["l0"], max_rate=5.0)
        env.run(until=flow.done)
        assert env.now == pytest.approx(2.0)

    def test_spare_capacity_redistributed_to_uncapped(self):
        env, net = make_net(100.0)
        capped = net.start_flow(100.0, ["l0"], max_rate=10.0)
        free = net.start_flow(90.0, ["l0"])
        env.run(until=free.done)
        # free flow gets 100-10=90 -> finishes at t=1
        assert env.now == pytest.approx(1.0)
        env.run(until=capped.done)
        assert env.now == pytest.approx(10.0 * 0.9 + (100 - 90) / 10.0, rel=1e-6)

    def test_departure_speeds_up_survivor(self):
        env, net = make_net(100.0)
        short = net.start_flow(25.0, ["l0"])   # shares 50/50, done at 0.5
        long = net.start_flow(75.0, ["l0"])
        env.run(until=short.done)
        assert env.now == pytest.approx(0.5)
        env.run(until=long.done)
        # long had 50 remaining at t=0.5, then gets full 100
        assert env.now == pytest.approx(1.0)

    def test_late_arrival_slows_existing(self):
        env, net = make_net(100.0)
        first = net.start_flow(100.0, ["l0"])

        def late(env, net):
            yield env.timeout(0.5)
            return net.start_flow(25.0, ["l0"])

        env.process(late(env, net))
        env.run(until=first.done)
        # first: 50 bytes by t=0.5 at rate 100; 25 more at rate 50 while the
        # late flow drains (done t=1.0); last 25 at full rate -> t=1.25
        assert env.now == pytest.approx(1.25)


class TestMultiLink:
    def test_flow_limited_by_slowest_link(self):
        env, net = make_net(100.0, 40.0)
        flow = net.start_flow(40.0, ["l0", "l1"])
        env.run(until=flow.done)
        assert env.now == pytest.approx(1.0)

    def test_memcpy_bottleneck_asymmetry(self):
        """DDR write (80) below DDR read (90): HBM->DDR slower than DDR->HBM."""
        env, net = make_net()
        net.add_link("ddr.read", 90.0)
        net.add_link("ddr.write", 80.0)
        net.add_link("hbm.read", 460.0)
        net.add_link("hbm.write", 380.0)
        d2h = net.start_flow(80.0, ["ddr.read", "hbm.write"])
        env.run(until=d2h.done)
        t_d2h = env.now
        h2d = net.start_flow(80.0, ["hbm.read", "ddr.write"])
        env.run(until=h2d.done)
        t_h2d = env.now - t_d2h
        assert t_h2d > t_d2h

    def test_cross_traffic_on_one_link(self):
        env, net = make_net(100.0, 100.0)
        both = net.start_flow(100.0, ["l0", "l1"])
        single = net.start_flow(50.0, ["l0"])
        env.run(until=single.done)
        assert env.now == pytest.approx(1.0)  # share 50/50 on l0
        env.run(until=both.done)
        assert env.now == pytest.approx(1.5)  # 50 left at full 100


class TestEdgeCases:
    def test_zero_byte_flow_completes_instantly(self):
        env, net = make_net(10.0)
        flow = net.start_flow(0.0, ["l0"])
        assert flow.done.triggered
        assert flow.finished_at == env.now

    def test_negative_bytes_rejected(self):
        env, net = make_net(10.0)
        with pytest.raises(SimulationError):
            net.start_flow(-1.0, ["l0"])

    def test_zero_weight_rejected(self):
        env, net = make_net(10.0)
        with pytest.raises(SimulationError):
            net.start_flow(1.0, ["l0"], weight=0.0)

    def test_unknown_link_rejected(self):
        env, net = make_net(10.0)
        with pytest.raises(SimulationError):
            net.start_flow(1.0, ["nope"])

    def test_duplicate_link_name_rejected(self):
        env, net = make_net(10.0)
        with pytest.raises(SimulationError):
            net.add_link("l0", 5.0)

    def test_cancel_flow_fails_its_event(self):
        env, net = make_net(10.0)
        flow = net.start_flow(100.0, ["l0"])
        cancel_flow(net, flow)
        assert flow.done.triggered and not flow.done.ok

    def test_counters(self):
        env, net = make_net(10.0)
        flows = [net.start_flow(5.0, ["l0"]) for _ in range(2)]
        env.run()
        assert all(flow.done.ok for flow in flows)
        assert sum(flow.total for flow in flows) == pytest.approx(10.0)
        assert env.now == pytest.approx(1.0)


class TestFluidProperties:
    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e6),
                          min_size=1, max_size=12),
           capacity=st.floats(min_value=1.0, max_value=1e6))
    # the second flow's last 1e-5 bytes fall under _EPSILON_BYTES: it is
    # force-completed at 4.0, 1e-5 s before sum / capacity
    @example(sizes=[2.0, 2.00001], capacity=1.0)
    def test_work_conservation_single_link(self, sizes, capacity):
        """Total service time is total bytes / capacity when the link is
        continuously backlogged (all flows start together), up to the
        epsilon contract: never late, and early by at most one
        force-completed ``_EPSILON_BYTES`` residue per flow."""
        env, net = make_net(capacity)
        flows = [net.start_flow(s, ["l0"]) for s in sizes]
        env.run()
        makespan = max(f.finished_at for f in flows)
        ideal = sum(sizes) / capacity
        assert makespan <= ideal * (1 + 1e-9)
        assert makespan >= (ideal * (1 - 1e-9)
                            - len(sizes) * _EPSILON_BYTES / capacity)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=20),
           size=st.floats(min_value=1.0, max_value=1e5))
    def test_equal_flows_finish_together(self, n, size):
        env, net = make_net(100.0)
        flows = [net.start_flow(size, ["l0"]) for _ in range(n)]
        env.run()
        finishes = {round(f.finished_at, 9) for f in flows}
        assert len(finishes) == 1

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e5),
                          min_size=2, max_size=8))
    def test_rates_never_exceed_capacity(self, sizes):
        env, net = make_net(50.0)
        for s in sizes:
            net.start_flow(s, ["l0"])
        total_rate = sum(f.rate for f in active_flows(net))
        assert total_rate <= 50.0 * (1 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(size=st.floats(min_value=1.0, max_value=1e5),
           cap_rate=st.floats(min_value=0.1, max_value=1e4))
    def test_capped_flow_never_beats_its_cap(self, size, cap_rate):
        env, net = make_net(1e9)
        flow = net.start_flow(size, ["l0"], max_rate=cap_rate)
        env.run(until=flow.done)
        assert env.now >= size / cap_rate * (1 - 1e-9)
