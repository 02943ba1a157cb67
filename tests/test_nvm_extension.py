"""Tests for the NVM+DRAM extension (paper conclusion)."""

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.config import DRAM_DEVICE, NVM_DEVICE, nvm_dram_config
from repro.core.api import OOCRuntimeBuilder
from repro.mem.block import BlockState
from repro.units import GiB, MiB
from tests.mem_oracle import check_registry_invariants


class TestNvmConfig:
    def test_nvm_slower_in_both_dimensions(self):
        assert NVM_DEVICE.read_bandwidth < DRAM_DEVICE.read_bandwidth
        assert NVM_DEVICE.write_bandwidth < DRAM_DEVICE.write_bandwidth
        assert NVM_DEVICE.latency > DRAM_DEVICE.latency

    def test_nvm_write_asymmetry(self):
        """Optane-class: writes are much slower than reads."""
        assert NVM_DEVICE.write_bandwidth < NVM_DEVICE.read_bandwidth / 2

    def test_tier_roles(self):
        cfg = nvm_dram_config()
        assert cfg.device("dram").numa_node == 1   # fast tier = node 1
        assert cfg.device("nvm").numa_node == 0


class TestNvmRuns:
    def run(self, strategy):
        machine = nvm_dram_config(cores=16, dram_capacity=256 * MiB,
                                  nvm_capacity=2 * GiB)
        built = OOCRuntimeBuilder(strategy,
                                  machine_config=machine).build()
        cfg = StencilConfig(total_bytes=512 * MiB, block_bytes=8 * MiB,
                            iterations=2)
        return built, Stencil3D(built, cfg).run()

    def test_strategies_run_unchanged_on_nvm(self):
        """Zero new scheduling code for a different memory pair."""
        for strategy in ("naive", "single-io", "no-io", "multi-io"):
            built, result = self.run(strategy)
            assert result.tasks_completed == 64 * 2

    def test_prefetch_tasks_execute_from_dram(self):
        built, _ = self.run("multi-io")
        # at completion, residual blocks are wherever the run left them;
        # the invariant checks happened during execution (shared machinery)
        check_registry_invariants(built.machine.registry)
        assert built.strategy.fetches > 0

    def test_eviction_pays_nvm_write_penalty(self):
        """HBM->slow eviction is write-bound: slower than fetch."""
        built, _ = self.run("multi-io")
        mover = built.machine.mover
        assert mover.bytes_moved > 0
        nvm = built.machine.ddr
        # evictions wrote to NVM; fetches read from it: write traffic is
        # the pricier direction
        assert nvm.bytes_written > 0

    def test_prefetch_beats_naive_by_more_than_on_knl(self):
        def speedup(machine_config):
            out = {}
            for strategy in ("naive", "multi-io"):
                if machine_config is None:
                    built = OOCRuntimeBuilder(
                        strategy, cores=32, mcdram_capacity=256 * MiB,
                        ddr_capacity=2 * GiB).build()
                else:
                    built = OOCRuntimeBuilder(
                        strategy,
                        machine_config=machine_config).build()
                cfg = StencilConfig(total_bytes=512 * MiB,
                                    block_bytes=4 * MiB, iterations=2)
                out[strategy] = Stencil3D(built, cfg).run().total_time
            return out["naive"] / out["multi-io"]

        nvm = nvm_dram_config(cores=32, dram_capacity=256 * MiB,
                              nvm_capacity=2 * GiB)
        assert speedup(nvm) > speedup(None)
