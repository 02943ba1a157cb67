"""Unit tests for the machine layer: CPU layout, kernels, STREAM."""

from itertools import count

import pytest

from repro.config import ConfigError, MachineConfig, knl_config
from repro.errors import ExperimentError
from repro.machine.cpu import build_cpu
from repro.machine.knl import build_knl
from repro.machine.stream import run_stream
from repro.mem.block import DataBlock
from repro.sim.environment import Environment
from repro.units import GiB, MiB

#: numbers for blocks made outside a block registry
BIDS = count()


class TestCpuLayout:
    def test_knl_layout(self):
        cores, tiles = build_cpu(68, 34, 4, 35e9, 12e9)
        assert len(cores) == 68
        assert len(tiles) == 34
        assert all(len(t.cores) == 2 for t in tiles)
        assert len(cores[0].threads) == 4

    def test_smt_sibling_distinct_from_primary(self):
        cores, _ = build_cpu(4, 2, 4, 35e9, 12e9)
        core = cores[0]
        primary, sibling = core.threads[:2]
        assert sibling.global_id != primary.global_id
        assert sibling.core_id == core.core_id

    def test_hardware_thread_ids_unique(self):
        cores, _ = build_cpu(8, 4, 4, 35e9, 12e9)
        ids = [t.global_id for c in cores for t in c.threads]
        assert len(set(ids)) == len(ids) == 32


class TestConfig:
    def test_knl_config_defaults(self):
        cfg = knl_config()
        assert cfg.cores == 64
        assert cfg.device("mcdram").capacity == 16 * GiB
        assert cfg.cores * cfg.smt == 256

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigError):
            knl_config().device("nvram")

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            MachineConfig(cores=0)
        with pytest.raises(ConfigError):
            MachineConfig(smt=0)
        with pytest.raises(ConfigError):
            MachineConfig(hybrid_cache_fraction=1.5)


class TestKernelExecution:
    @pytest.fixture
    def node(self):
        return build_knl(Environment(), cores=4, mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)

    def test_pure_compute_kernel(self, node):
        proc = node.env.process(node.run_kernel(0, flops=35e9, traffic={}))
        result = node.env.run(until=proc)
        assert result.duration == pytest.approx(1.0)
        assert result.duration == pytest.approx(result.compute_floor)

    def test_memory_bound_kernel(self, node):
        # 12 GB over one core capped at 12 GB/s -> 1 s, compute floor tiny
        proc = node.env.process(node.run_kernel(
            0, flops=1e6, traffic={node.hbm: (12e9, 0.0)}))
        result = node.env.run(until=proc)
        assert result.duration == pytest.approx(1.0, rel=1e-3)
        assert result.duration > result.compute_floor * (1 + 1e-9)

    def test_roofline_max_semantics(self, node):
        """Duration = max(compute floor, memory time), not the sum."""
        proc = node.env.process(node.run_kernel(
            0, flops=35e9, traffic={node.hbm: (6e9, 0.0)}))  # mem: 0.5s
        result = node.env.run(until=proc)
        assert result.duration == pytest.approx(1.0, rel=1e-3)

    def test_negative_flops_rejected(self, node):
        with pytest.raises(ConfigError):
            next(node.run_kernel(0, flops=-1, traffic={}))

    def test_kernel_on_blocks_uses_residency(self, node):
        fast = DataBlock("fast", 120 * MiB, bid=next(BIDS))
        slow = DataBlock("slow", 120 * MiB, bid=next(BIDS))
        node.registry.register(fast)
        node.registry.register(slow)
        node.topology.place_block(fast, node.hbm)
        node.topology.place_block(slow, node.ddr)
        env = node.env

        def run(block):
            result = yield from node.run_kernel_on_blocks(
                0, flops=0.0, reads=[block], writes=[block])
            return result

        r_fast = env.run(until=env.process(run(fast)))
        r_slow = env.run(until=env.process(run(slow)))
        # both capped by the per-core 12 GB/s here; with 4 cores no
        # contention, so only device bandwidth differences show when
        # aggregated -- so instead verify traffic accounting:
        assert node.hbm.bytes_read > 0 and node.ddr.bytes_read > 0
        assert r_fast.bytes_touched == r_slow.bytes_touched

    def test_unplaced_block_rejected(self, node):
        ghost = DataBlock("ghost", MiB, bid=next(BIDS))
        with pytest.raises(ConfigError):
            next(node.run_kernel_on_blocks(0, 0.0, reads=[ghost], writes=[]))

    def test_contention_between_kernels(self):
        """Enough concurrent kernels saturate the device and slow down."""
        node = build_knl(Environment(), cores=16, mcdram_capacity=GiB,
                         ddr_capacity=4 * GiB)
        env = node.env
        nbytes = 4e9

        def kernel(core):
            result = yield from node.run_kernel(
                core, flops=0.0, traffic={node.ddr: (nbytes, nbytes)})
            return result

        solo = env.run(until=env.process(kernel(0))).duration
        # 16 cores x 12 GB/s demand = 192 GB/s against an 80 GB/s port
        procs = [env.process(kernel(c)) for c in range(16)]
        env.run(until=env.all_of(procs))
        crowd = max(p.value.duration for p in procs)
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
