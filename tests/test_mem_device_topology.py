"""Unit tests for MemoryDevice and MemoryTopology."""

from itertools import count

import pytest

from repro.config import ConfigError
from repro.errors import CapacityError
from repro.machine.knl import build_knl
from repro.mem.allocator import PagedAllocator
from repro.mem.block import BlockState, DataBlock
from repro.mem.device import MemoryDevice
from repro.mem.topology import MemoryTopology
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from repro.units import GiB, MiB

#: numbers for blocks made outside a block registry
BIDS = count()


def make_device(name="dev", node=0, capacity=GiB, read=90e9, write=80e9,
                env=None, network=None):
    env = env or Environment()
    network = network or FluidNetwork(env)
    return MemoryDevice(name=name, numa_node=node, capacity=capacity,
                        read_bandwidth=read, write_bandwidth=write,
                        latency=1e-7,
                        allocator=PagedAllocator(capacity), network=network)


class TestMemoryDevice:
    def test_creates_read_write_links(self):
        env = Environment()
        net = FluidNetwork(env)
        dev = make_device(env=env, network=net)
        assert net.link("dev.read") is dev.read_link
        assert net.link("dev.write") is dev.write_link

    def test_read_flow_drains_at_capacity(self):
        env = Environment()
        dev = make_device(env=env, network=FluidNetwork(env))
        flow = dev.mixed_flow(90e9, 0)
        assert flow.links == (dev.read_link,)
        env.run(until=flow.done)
        assert env.now == pytest.approx(1.0)

    def test_write_flow_drains_at_capacity(self):
        env = Environment()
        dev = make_device(env=env, network=FluidNetwork(env))
        flow = dev.mixed_flow(0, 80e9)
        assert flow.links == (dev.write_link,)
        env.run(until=flow.done)
        assert env.now == pytest.approx(1.0)

    def test_mixed_flow_limited_by_weaker_port(self):
        env = Environment()
        dev = make_device(env=env, network=FluidNetwork(env))
        flow = dev.mixed_flow(40e9, 40e9)   # 80 GB total over write cap 80
        env.run(until=flow.done)
        assert env.now == pytest.approx(1.0)

    def test_traffic_counters(self):
        env = Environment()
        dev = make_device(env=env, network=FluidNetwork(env))
        dev.mixed_flow(100.0, 0)
        dev.mixed_flow(0, 50.0)
        assert dev.bytes_read == 100.0
        assert dev.bytes_written == 50.0

    def test_capacity_accounting_delegates(self):
        dev = make_device()
        a = dev.allocate(100)
        assert dev.used == 100
        dev.free(a)
        assert dev.available == dev.capacity

    def test_invalid_parameters_rejected(self):
        env = Environment()
        net = FluidNetwork(env)
        with pytest.raises(ConfigError):
            MemoryDevice("x", 0, 0, 1.0, 1.0, 0.0, PagedAllocator(1), net)
        with pytest.raises(ConfigError):
            MemoryDevice("x", 0, 10, -1.0, 1.0, 0.0, PagedAllocator(10), net)


class TestMemoryTopology:
    @pytest.fixture
    def topo(self):
        env = Environment()
        net = FluidNetwork(env)
        ddr = make_device("ddr4", 0, 4 * GiB, env=env, network=net)
        hbm = make_device("mcdram", 1, GiB, env=env, network=net)
        return MemoryTopology([ddr, hbm])

    def test_node_lookup(self, topo):
        assert topo.node(0).name == "ddr4"
        assert topo.node(1).name == "mcdram"
        assert topo.hbm.name == "mcdram"
        assert topo.ddr.name == "ddr4"

    def test_unknown_node_rejected(self, topo):
        with pytest.raises(ConfigError):
            topo.node(7)

    def test_duplicate_nodes_rejected(self):
        env = Environment()
        net = FluidNetwork(env)
        a = make_device("a", 0, GiB, env=env, network=net)
        b = make_device("b", 0, GiB, env=env, network=net)
        with pytest.raises(ConfigError):
            MemoryTopology([a, b])

    def test_place_block_sets_state(self, topo):
        block = DataBlock("b", 64 * MiB, bid=next(BIDS))
        topo.place_block(block, topo.hbm)
        assert block.state is BlockState.INHBM
        assert block.device is topo.hbm
        assert block.allocation.live

    def test_state_for_maps_devices(self, topo):
        assert topo.state_for(topo.hbm) is BlockState.INHBM
        assert topo.state_for(topo.ddr) is BlockState.INDDR

    def test_double_place_rejected(self, topo):
        block = DataBlock("b", 1024, bid=next(BIDS))
        topo.place_block(block, topo.hbm)
        with pytest.raises(ConfigError):
            topo.place_block(block, topo.ddr)

    def test_release_block(self, topo):
        block = DataBlock("b", 1024, bid=next(BIDS))
        topo.place_block(block, topo.hbm)
        topo.release_block(block)
        assert topo.hbm.used == 0
        with pytest.raises(CapacityError):
            topo.release_block(block)


class TestKNLFactory:
    def test_flat_mode_has_two_devices(self):
        node = build_knl(Environment())
        assert [d.name for d in node.topology.devices] == ["ddr4", "mcdram"]
        assert node.mcdram_cache is None

    def test_capacities_match_paper(self):
        node = build_knl(Environment())
        assert node.hbm.capacity == 16 * GiB
        assert node.ddr.capacity == 96 * GiB

    def test_bandwidth_ratio_exceeds_4x(self):
        """Fig 1's headline: MCDRAM has over 4x the DDR4 bandwidth."""
        node = build_knl(Environment())
        assert node.hbm.read_bandwidth / node.ddr.read_bandwidth > 4.0

    def test_cache_mode_single_device_plus_cache(self):
        from repro.config import MemoryMode
        node = build_knl(Environment(), memory_mode=MemoryMode.CACHE)
        assert [d.name for d in node.topology.devices] == ["ddr4"]
        assert node.mcdram_cache is not None
        assert node.mcdram_cache.capacity == 16 * GiB

    def test_hybrid_mode_splits_mcdram(self, monkeypatch):
        from repro.config import MemoryMode
        from repro.machine import knl
        monkeypatch.setattr(knl, "HYBRID_CACHE_FRACTION", 0.25)
        node = build_knl(Environment(), memory_mode=MemoryMode.HYBRID)
        assert node.hbm.capacity == 12 * GiB
        assert node.mcdram_cache.capacity == 4 * GiB

    def test_quadrant_mode_boosts_bandwidth(self):
        from repro.config import ClusterMode
        a2a = build_knl(Environment())
        quad = build_knl(Environment(), cluster_mode=ClusterMode.QUADRANT)
        assert quad.hbm.read_bandwidth > a2a.hbm.read_bandwidth
        assert quad.hbm.latency < a2a.hbm.latency
