"""Per-class fluid state seen from outside: repeated links and ``Flow.rate``.

A link named twice in one path counts once, so it cannot drain a
co-runner's share.  ``Flow.rate`` reads the class rate while the flow is
active, settling any deferred solve first, and keeps the rate the flow
left with once it finished or was cancelled.  Each test runs on the
shipped network and on both oracles.
"""

from __future__ import annotations

import pytest

from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from tests.fluid_oracle import (EagerFluidNetwork, UnmemoizedFluidNetwork,
                                cancel_flow)

NETWORKS = [pytest.param(FluidNetwork, id="shipped"),
            pytest.param(UnmemoizedFluidNetwork, id="unmemoized"),
            pytest.param(EagerFluidNetwork, id="eager")]


def _net(network_cls):
    env = Environment()
    net = network_cls(env)
    return env, net, net.add_link("l", 100.0)


@pytest.mark.parametrize("network_cls", NETWORKS)
def test_repeated_link_does_not_starve_co_runner(network_cls):
    env, net, link = _net(network_cls)
    capped = net.start_flow(1000.0, [link, link], max_rate=10.0)
    other = net.start_flow(1000.0, [link])
    assert other.rate == 90.0
    assert capped.rate == 10.0
    assert capped.links == (link,)
    env.run(other.done)
    assert other.finished_at == pytest.approx(1000.0 / 90.0)


@pytest.mark.parametrize("network_cls", NETWORKS)
def test_fresh_flow_rate_settles_before_the_flush(network_cls):
    env, net, link = _net(network_cls)
    first = net.start_flow(1000.0, [link])
    assert first.rate == 100.0
    second = net.start_flow(1000.0, [link])
    assert (first.rate, second.rate) == (50.0, 50.0)
    assert env.now == 0.0


@pytest.mark.parametrize("network_cls", NETWORKS)
def test_finished_flow_keeps_the_rate_it_left_with(network_cls):
    env, net, link = _net(network_cls)
    short = net.start_flow(100.0, [link])
    long = net.start_flow(1000.0, [link])
    env.run(short.done)
    assert short.finished_at == 2.0
    assert long.rate == 100.0  # its class, re-solved without `short`
    assert short.rate == 50.0


@pytest.mark.parametrize("network_cls", NETWORKS)
def test_cancelled_flow_keeps_the_rate_it_left_with(network_cls):
    env, net, link = _net(network_cls)
    cancelled = net.start_flow(1000.0, [link])
    survivor = net.start_flow(1000.0, [link])
    env.run(1.0)
    cancel_flow(net, cancelled)
    env.run(2.0)
    assert survivor.rate == 100.0
    assert cancelled.rate == 50.0
    assert cancelled.remaining == 950.0


@pytest.mark.parametrize("network_cls", NETWORKS)
def test_zero_byte_flow_reads_zero_rate(network_cls):
    env, net, link = _net(network_cls)
    busy = net.start_flow(1000.0, [link])
    empty = net.start_flow(0.0, [link])
    assert empty.finished
    assert empty.rate == 0.0
    assert busy.rate == 100.0
