"""Tests for hybrid memory mode and cache-mode node construction."""

import functools

import pytest

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.config import MemoryMode
from repro.core import api
from repro.core.api import OOCRuntimeBuilder
from repro.errors import ConfigError
from repro.machine import knl
from repro.machine.knl import build_knl
from repro.sim.environment import Environment
from repro.units import GiB, MiB


class TestHybridMode:
    def test_runtime_runs_on_hybrid_flat_partition(self, monkeypatch):
        """Hybrid mode: the OOC runtime manages the flat MCDRAM slice."""
        monkeypatch.setattr(api, "build_knl", functools.partial(
            build_knl, memory_mode=MemoryMode.HYBRID))
        built = OOCRuntimeBuilder(
            "multi-io", cores=8,
            mcdram_capacity=512 * MiB, ddr_capacity=4 * GiB).build()
        # half of the 512 MiB is cache, half is the flat node-1 pool
        assert built.machine.hbm.capacity == 256 * MiB
        assert built.machine.mcdram_cache.capacity == 256 * MiB
        cfg = StencilConfig(total_bytes=512 * MiB, block_bytes=16 * MiB,
                            iterations=1)
        result = Stencil3D(built, cfg).run()
        assert result.tasks_completed == 32

    def test_full_cache_fraction_rejected(self, monkeypatch):
        monkeypatch.setattr(knl, "HYBRID_CACHE_FRACTION", 1.0)
        with pytest.raises(ConfigError):
            build_knl(Environment(), memory_mode=MemoryMode.HYBRID)

    def test_zero_cache_fraction_keeps_all_flat(self, monkeypatch):
        monkeypatch.setattr(knl, "HYBRID_CACHE_FRACTION", 0.0)
        node = build_knl(Environment(), memory_mode=MemoryMode.HYBRID,
                         mcdram_capacity=GiB)
        assert node.hbm.capacity == GiB


class TestCacheModeNode:
    def test_no_hbm_device_in_cache_mode(self):
        node = build_knl(Environment(), memory_mode=MemoryMode.CACHE)
        with pytest.raises(ConfigError):
            node.topology.node(1)

    def test_cache_parameters_derive_from_devices(self):
        node = build_knl(Environment(), memory_mode=MemoryMode.CACHE)
        cache = node.mcdram_cache
        assert cache.hit_bandwidth == pytest.approx(460e9)
        assert cache.miss_bandwidth == pytest.approx(90e9)
