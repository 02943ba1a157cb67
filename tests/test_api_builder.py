"""Tests for the OOCRuntimeBuilder façade and package-level API."""

import repro
from repro.config import ClusterMode
from repro.core.api import OOCRuntimeBuilder
from repro.core.eviction import LRUEviction
from repro.core.strategies import MultiIOThreadStrategy
from repro.units import GiB, MiB


class TestBuilder:
    def test_default_build_shape(self):
        built = OOCRuntimeBuilder().build()
        assert built.strategy.name == "multi-io"
        assert len(built.runtime.pes) == 64
        assert built.machine.hbm.capacity == 16 * GiB
        assert built.runtime.interceptor is built.manager

    def test_strategy_instance_accepted(self):
        strategy = MultiIOThreadStrategy()
        built = OOCRuntimeBuilder(strategy, cores=2).build()
        assert built.strategy is strategy

    def test_eviction_policy_forwarded(self):
        policy = LRUEviction()
        built = OOCRuntimeBuilder("multi-io", cores=2,
                                  eviction=policy).build()
        assert built.manager.eviction is policy

    def test_capacity_strings_parsed(self):
        built = OOCRuntimeBuilder("naive", cores=2,
                                  mcdram_capacity="512MiB",
                                  ddr_capacity="2GiB").build()
        assert built.machine.hbm.capacity == 512 * MiB

    def test_memory_and_cluster_modes(self):
        built = OOCRuntimeBuilder(
            "naive", cores=2, cluster_mode=ClusterMode.QUADRANT).build()
        assert "quadrant" in built.machine.config.name

    def test_two_builds_are_independent(self):
        b1 = OOCRuntimeBuilder("multi-io", cores=2).build()
        b2 = OOCRuntimeBuilder("multi-io", cores=2).build()
        assert b1.env is not b2.env
        assert b1.machine.registry is not b2.machine.registry


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_strategies_registry_exported(self):
        assert "multi-io" in repro.STRATEGIES
        assert repro.make_strategy("naive").name == "naive"
