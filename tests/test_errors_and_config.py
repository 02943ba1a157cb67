"""Tests for the error hierarchy and configuration dataclasses."""

import pytest

from repro import errors
from repro.config import (
    ClusterMode,
    DeviceConfig,
    KNL_DDR4,
    KNL_MCDRAM,
    MachineConfig,
    MemoryMode,
    knl_config,
)
from repro.errors import ConfigError
from repro.units import GiB


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_capacity_error_payload(self):
        err = errors.CapacityError("full", available=10)
        assert err.available == 10

    def test_deadlock_error_waiting_list(self):
        err = errors.DeadlockError("stuck", waiting=("a", "b"))
        assert err.waiting == ("a", "b")

    def test_catching_base_catches_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchedulingError("x")


class TestDeviceConfig:
    def test_paper_devices(self):
        assert KNL_MCDRAM.capacity == 16 * GiB
        assert KNL_DDR4.capacity == 96 * GiB
        assert KNL_MCDRAM.read_bandwidth > 4 * KNL_DDR4.read_bandwidth

    def test_scaled_copy(self):
        faster = KNL_DDR4.scaled(bandwidth_factor=2.0, capacity=GiB)
        assert faster.read_bandwidth == 2 * KNL_DDR4.read_bandwidth
        assert faster.capacity == GiB
        assert KNL_DDR4.capacity == 96 * GiB  # original untouched

    def test_validation(self):
        with pytest.raises(ConfigError):
            DeviceConfig("x", 0, 0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            DeviceConfig("x", 0, 10, 1.0, 1.0, latency=-1.0)


class TestKnlConfig:
    def test_mode_encoded_in_name(self):
        cfg = knl_config(memory_mode=MemoryMode.CACHE,
                         cluster_mode=ClusterMode.QUADRANT)
        assert cfg.name == "knl-cache-quadrant"

    def test_custom_capacities(self):
        cfg = knl_config(mcdram_capacity="8GiB", ddr_capacity="48GiB")
        assert cfg.device("mcdram").capacity == 8 * GiB
        assert cfg.device("ddr4").capacity == 48 * GiB

    def test_duplicate_numa_nodes_rejected(self):
        dup = KNL_DDR4
        with pytest.raises(ConfigError):
            MachineConfig(devices=(dup, dup))

    def test_copy_bandwidth_below_streaming_cap(self):
        """Single-thread memcpy is slower than streaming on KNL cores —
        the fact that makes one IO thread a bottleneck (§V-A)."""
        cfg = knl_config()
        assert cfg.copy_bandwidth < cfg.core_mem_bandwidth
