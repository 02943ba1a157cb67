"""Unit tests for the machine layer: config, kernels, STREAM."""

import dataclasses
from itertools import count

import pytest

from repro.config import ConfigError, MachineConfig, knl_config
from repro.errors import ExperimentError
from repro.machine.knl import build_knl
from repro.machine.stream import run_stream
from repro.mem.block import DataBlock
from repro.sim.environment import Environment
from repro.units import GiB, MiB

#: numbers for blocks made outside a block registry
BIDS = count()


class TestConfig:
    def test_knl_config_defaults(self):
        cfg = knl_config()
        assert cfg.cores == 64
        assert cfg.device("mcdram").capacity == 16 * GiB
        assert len(dataclasses.fields(cfg)) == 6

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigError):
            knl_config().device("nvram")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(cores=0)
        with pytest.raises(ConfigError):
            MachineConfig(core_flops=0.0)
        with pytest.raises(ConfigError):
            MachineConfig(devices=())


class TestKernelExecution:
    @pytest.fixture
    def node(self):
        return build_knl(Environment(), cores=4, mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)

    def test_pure_compute_kernel(self, node):
        proc = node.env.process(node.run_kernel(flops=35e9, traffic={}))
        duration = node.env.run(until=proc)
        assert duration == pytest.approx(1.0)
        assert duration == pytest.approx(35e9 / node.core_flops)

    def test_memory_bound_kernel(self, node):
        # 12 GB over one core capped at 12 GB/s -> 1 s, compute floor tiny
        proc = node.env.process(node.run_kernel(
            flops=1e6, traffic={node.hbm: (12e9, 0.0)}))
        duration = node.env.run(until=proc)
        assert duration == pytest.approx(1.0, rel=1e-3)
        assert duration > 1e6 / node.core_flops * (1 + 1e-9)

    def test_roofline_max_semantics(self, node):
        """Duration = max(compute floor, memory time), not the sum."""
        proc = node.env.process(node.run_kernel(
            flops=35e9, traffic={node.hbm: (6e9, 0.0)}))  # mem: 0.5s
        duration = node.env.run(until=proc)
        assert duration == pytest.approx(1.0, rel=1e-3)

    def test_negative_flops_rejected(self, node):
        with pytest.raises(ConfigError):
            next(node.run_kernel(flops=-1, traffic={}))

    def test_kernel_on_blocks_uses_residency(self, node):
        fast = DataBlock("fast", 120 * MiB, bid=next(BIDS))
        slow = DataBlock("slow", 120 * MiB, bid=next(BIDS))
        node.registry.register(fast)
        node.registry.register(slow)
        node.topology.place_block(fast, node.hbm)
        node.topology.place_block(slow, node.ddr)
        env = node.env

        def run(block):
            return (yield from node.run_kernel_on_blocks(
                flops=0.0, reads=[block], writes=[block]))

        env.run(until=env.process(run(fast)))
        env.run(until=env.process(run(slow)))
        # both capped by the per-core 12 GB/s here; with 4 cores no
        # contention, so only device bandwidth differences show when
        # aggregated -- so instead verify traffic accounting:
        assert node.hbm.bytes_read == node.ddr.bytes_read == 120 * MiB
        assert node.hbm.bytes_written == node.ddr.bytes_written == 120 * MiB

    def test_unplaced_block_rejected(self, node):
        ghost = DataBlock("ghost", MiB, bid=next(BIDS))
        with pytest.raises(ConfigError):
            next(node.run_kernel_on_blocks(0.0, reads=[ghost], writes=[]))

    def test_contention_between_kernels(self):
        """Enough concurrent kernels saturate the device and slow down."""
        node = build_knl(Environment(), cores=16, mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)
        env = node.env
        nbytes = 4e9

        def kernel():
            return (yield from node.run_kernel(
                flops=0.0, traffic={node.ddr: (nbytes, nbytes)}))

        solo = env.run(until=env.process(kernel()))
        # 16 cores x 12 GB/s demand = 192 GB/s against an 80 GB/s port
        procs = [env.process(kernel()) for _ in range(16)]
        env.run(until=env.all_of(procs))
        crowd = max(p.value for p in procs)
        assert crowd > solo * 2.0


class TestStream:
    @pytest.fixture
    def node(self):
        return build_knl(Environment())

    def test_mcdram_beats_ddr_by_over_4x(self, node):
        """Figure 1's central observation."""
        ddr = run_stream(node, "ddr4", kernel="triad", threads=64)
        hbm = run_stream(node, "mcdram", kernel="triad", threads=64)
        assert hbm.bandwidth / ddr.bandwidth > 4.0

    def test_bandwidth_saturates_with_threads(self, node):
        one = run_stream(node, "mcdram", threads=1)
        many = run_stream(node, "mcdram", threads=64)
        assert many.bandwidth > one.bandwidth * 10
        # a single thread is capped by per-core bandwidth
        assert one.bandwidth <= node.config.core_mem_bandwidth * 1.01

    def test_all_kernels_measurable(self, node):
        for kernel in ("copy", "scale", "add", "triad"):
            result = run_stream(node, "ddr4", kernel=kernel, threads=8)
            assert result.bandwidth > 0

    def test_unknown_kernel_rejected(self, node):
        with pytest.raises(ExperimentError):
            run_stream(node, "ddr4", kernel="nonsense")

    def test_thread_count_validated(self, node):
        with pytest.raises(ExperimentError):
            run_stream(node, "ddr4", threads=1000)
