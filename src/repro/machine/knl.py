"""KNL machine factory: memory modes and cluster modes (§III-B).

* **Flat** — MCDRAM and DDR4 are separate NUMA nodes (the paper's setup).
* **Cache** — MCDRAM is a direct-mapped cache of DDR4: the node exposes a
  single DDR4-sized pool; bandwidth experienced by kernels comes from the
  :class:`~repro.mem.cache.DirectMappedCache` model attached to the node.
* **Hybrid** — part of MCDRAM in flat mode (a smaller node-1 pool), the
  rest acting as cache.

Cluster modes scale bandwidth/latency inside :func:`repro.config.knl_config`.
"""

from __future__ import annotations

from repro.config import ClusterMode, MachineConfig, MemoryMode, knl_config
from repro.errors import ConfigError
from repro.machine.node import MachineNode
from repro.mem.cache import DirectMappedCache
from repro.mem.allocator import PagedAllocator
from repro.sim.environment import Environment
from repro.units import GiB

__all__ = ["build_machine", "build_knl"]

#: fraction of MCDRAM that HYBRID mode configures as cache
HYBRID_CACHE_FRACTION = 0.5


def build_machine(env: Environment, config: MachineConfig) -> MachineNode:
    """Build a node from an explicit config (flat-mode semantics)."""
    node = MachineNode(env, config)
    node.mcdram_cache = None  # type: ignore[attr-defined]
    return node


def build_knl(env: Environment, *,
              cores: int = 64,
              memory_mode: MemoryMode = MemoryMode.FLAT,
              cluster_mode: ClusterMode = ClusterMode.ALL_TO_ALL,
              mcdram_capacity: int | str = 16 * GiB,
              ddr_capacity: int | str = 96 * GiB,
              allocator_cls: type = PagedAllocator,
              ) -> MachineNode:
    """Build the paper's KNL node in the requested mode.

    In CACHE mode the returned node has only the DDR4 device (numa node 0)
    plus a ``mcdram_cache`` attribute carrying the cache model; HYBRID mode
    shrinks the flat MCDRAM pool and attaches a proportionally smaller
    cache.
    """
    base = knl_config(cores=cores, memory_mode=memory_mode,
                      cluster_mode=cluster_mode,
                      mcdram_capacity=mcdram_capacity,
                      ddr_capacity=ddr_capacity)
    ddr_cfg = base.device("ddr4")
    mcdram_cfg = base.device("mcdram")

    if memory_mode is MemoryMode.FLAT:
        node = MachineNode(env, base, allocator_cls=allocator_cls)
        node.mcdram_cache = None  # type: ignore[attr-defined]
        return node

    if memory_mode is MemoryMode.CACHE:
        cfg = MachineConfig(
            name=base.name, cores=base.cores, tiles=base.tiles, smt=base.smt,
            core_flops=base.core_flops,
            core_mem_bandwidth=base.core_mem_bandwidth,
            devices=(ddr_cfg,), memory_mode=memory_mode,
            cluster_mode=cluster_mode)
        node = MachineNode(env, cfg, allocator_cls=allocator_cls)
        node.mcdram_cache = DirectMappedCache(  # type: ignore[attr-defined]
            mcdram_cfg.capacity,
            hit_bandwidth=mcdram_cfg.read_bandwidth,
            miss_bandwidth=ddr_cfg.read_bandwidth)
        return node

    if memory_mode is MemoryMode.HYBRID:
        cache_bytes = int(mcdram_cfg.capacity * HYBRID_CACHE_FRACTION)
        flat_bytes = mcdram_cfg.capacity - cache_bytes
        if flat_bytes <= 0:
            raise ConfigError(
                "hybrid mode needs a non-empty flat MCDRAM partition")
        flat_mcdram = mcdram_cfg.scaled(capacity=flat_bytes)
        cfg = MachineConfig(
            name=base.name, cores=base.cores, tiles=base.tiles, smt=base.smt,
            core_flops=base.core_flops,
            core_mem_bandwidth=base.core_mem_bandwidth,
            devices=(ddr_cfg, flat_mcdram), memory_mode=memory_mode,
            cluster_mode=cluster_mode,
            hybrid_cache_fraction=HYBRID_CACHE_FRACTION)
        node = MachineNode(env, cfg, allocator_cls=allocator_cls)
        if cache_bytes > 0:
            node.mcdram_cache = DirectMappedCache(  # type: ignore[attr-defined]
                cache_bytes,
                hit_bandwidth=mcdram_cfg.read_bandwidth,
                miss_bandwidth=ddr_cfg.read_bandwidth)
        else:
            node.mcdram_cache = None  # type: ignore[attr-defined]
        return node

    raise ConfigError(f"unknown memory mode {memory_mode!r}")
