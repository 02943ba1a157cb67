"""Configuration dataclasses for machines and experiments.

Defaults are calibrated to the paper's testbed: a Stampede 2.0 Intel Xeon
Phi Knights Landing node in Flat / All-to-All mode — 68 cores (64 used),
16 GB MCDRAM at >4x the bandwidth of 96 GB DDR4 (§III-B, §V).

Bandwidth numbers are *effective STREAM-class* bandwidths, because the
fluid model equates a device port's capacity with what concurrent streaming
requestors can extract from it (Figure 1 is the calibration anchor).
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.errors import ConfigError
from repro.units import GiB, parse_size

__all__ = [
    "MemoryMode", "ClusterMode", "DeviceConfig", "MachineConfig",
    "KNL_MCDRAM", "KNL_DDR4", "NVM_DEVICE", "DRAM_DEVICE",
    "knl_config", "nvm_dram_config",
]


class MemoryMode(enum.Enum):
    """KNL MCDRAM configuration (§III-B)."""

    FLAT = "flat"
    CACHE = "cache"
    HYBRID = "hybrid"


class ClusterMode(enum.Enum):
    """KNL mesh/tag-directory configuration (§III-B)."""

    ALL_TO_ALL = "all-to-all"
    QUADRANT = "quadrant"


@dataclasses.dataclass(frozen=True)
class DeviceConfig:
    """Static description of one memory device."""

    name: str
    numa_node: int
    capacity: int
    read_bandwidth: float
    write_bandwidth: float
    latency: float = 1.5e-7

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError(f"device {self.name!r}: capacity must be > 0")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ConfigError(f"device {self.name!r}: bandwidth must be > 0")
        if self.latency < 0:
            raise ConfigError(f"device {self.name!r}: latency must be >= 0")

    def scaled(self, bandwidth_factor: float = 1.0,
               latency_factor: float = 1.0,
               capacity: int | None = None) -> "DeviceConfig":
        """A copy with adjusted bandwidth/latency/capacity."""
        return dataclasses.replace(
            self,
            read_bandwidth=self.read_bandwidth * bandwidth_factor,
            write_bandwidth=self.write_bandwidth * bandwidth_factor,
            latency=self.latency * latency_factor,
            capacity=self.capacity if capacity is None else capacity,
        )


#: MCDRAM (HBM): 16 GB, STREAM-class bandwidth ~4.5x DDR4 (paper Fig. 1).
KNL_MCDRAM = DeviceConfig(
    name="mcdram", numa_node=1, capacity=16 * GiB,
    read_bandwidth=460e9, write_bandwidth=380e9, latency=1.6e-7)

#: DDR4: 96 GB, the low-bandwidth / high-capacity pool.
KNL_DDR4 = DeviceConfig(
    name="ddr4", numa_node=0, capacity=96 * GiB,
    read_bandwidth=90e9, write_bandwidth=80e9, latency=1.3e-7)

#: NVM: the paper's conclusion projects the approach onto memories that are
#: both bandwidth- AND latency-restricted ([9], [10]).  Optane-DCPMM-class
#: parameters: asymmetric read/write bandwidth, microsecond-scale latency.
NVM_DEVICE = DeviceConfig(
    name="nvm", numa_node=0, capacity=512 * GiB,
    read_bandwidth=30e9, write_bandwidth=10e9, latency=1.0e-6)

#: Plain DRAM as the fast tier of an NVM+DRAM node.
DRAM_DEVICE = DeviceConfig(
    name="dram", numa_node=1, capacity=32 * GiB,
    read_bandwidth=100e9, write_bandwidth=90e9, latency=1.0e-7)


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Static description of a many-core node with heterogeneous memory."""

    name: str = "knl"
    #: worker cores, one PE each (KNL has 68; the paper uses 64)
    cores: int = 64
    #: peak double-precision rate per core, FLOP/s (AVX-512 dgemm-class)
    core_flops: float = 35e9
    #: memory bandwidth a single core can extract, B/s
    core_mem_bandwidth: float = 12e9
    #: single-thread memcpy bandwidth, B/s — much lower than the streaming
    #: cap on KNL's simple cores (Perarnau et al. measure single-core copy
    #: in the few-GB/s range; this is why one IO thread cannot feed 64 PEs)
    copy_bandwidth: float = 5e9
    devices: tuple[DeviceConfig, ...] = (KNL_DDR4, KNL_MCDRAM)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError("cores must be > 0")
        if self.core_flops <= 0 or self.core_mem_bandwidth <= 0:
            raise ConfigError("core rates must be > 0")
        if not self.devices:
            raise ConfigError("a machine needs at least one memory device")
        nodes = [d.numa_node for d in self.devices]
        if len(set(nodes)) != len(nodes):
            raise ConfigError("duplicate numa node ids in device list")

    def device(self, name: str) -> DeviceConfig:
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise ConfigError(f"no device named {name!r}")


def knl_config(*, cores: int = 64,
               memory_mode: MemoryMode = MemoryMode.FLAT,
               cluster_mode: ClusterMode = ClusterMode.ALL_TO_ALL,
               mcdram_capacity: _t.Union[int, str] = 16 * GiB,
               ddr_capacity: _t.Union[int, str] = 96 * GiB) -> MachineConfig:
    """The paper's testbed configuration, with knobs for ablations.

    Cluster mode: the paper uses All-to-All, noting it "has the most impact
    on memory bandwidth".  Quadrant mode shortens mesh routes: we model it
    as a mild bandwidth gain and latency cut over All-to-All.
    """
    mc = parse_size(mcdram_capacity)
    dc = parse_size(ddr_capacity)
    bw_factor, lat_factor = (1.0, 1.0)
    if cluster_mode is ClusterMode.QUADRANT:
        bw_factor, lat_factor = (1.06, 0.88)
    mcdram = KNL_MCDRAM.scaled(bw_factor, lat_factor, capacity=mc)
    ddr = KNL_DDR4.scaled(bw_factor, lat_factor, capacity=dc)
    return MachineConfig(
        name=f"knl-{memory_mode.value}-{cluster_mode.value}",
        cores=cores,
        devices=(ddr, mcdram),
    )


def nvm_dram_config(*, cores: int = 64,
                    dram_capacity: _t.Union[int, str] = 32 * GiB,
                    nvm_capacity: _t.Union[int, str] = 512 * GiB) -> MachineConfig:
    """An NVM+DRAM node: the paper's projected next target.

    DRAM plays the role MCDRAM plays on KNL (the small fast pool, NUMA
    node 1); NVM is the big slow pool (node 0).  The slow tier is worse in
    *both* bandwidth and latency, so the paper's conclusion predicts larger
    prefetch gains than on KNL — `benchmarks/bench_extension_nvm.py`
    checks that prediction.
    """
    dram = DRAM_DEVICE.scaled(capacity=parse_size(dram_capacity))
    nvm = NVM_DEVICE.scaled(capacity=parse_size(nvm_capacity))
    return MachineConfig(
        name="nvm-dram", cores=cores, devices=(nvm, dram))
