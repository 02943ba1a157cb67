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

import dataclasses

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
    return MachineNode(env, config)


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
        return MachineNode(env, base, allocator_cls=allocator_cls)

    if memory_mode is MemoryMode.CACHE:
        cfg = dataclasses.replace(base, devices=(ddr_cfg,))
        node = MachineNode(env, cfg, allocator_cls=allocator_cls)
        node.mcdram_cache = DirectMappedCache(
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
        cfg = dataclasses.replace(base, devices=(ddr_cfg, flat_mcdram))
        node = MachineNode(env, cfg, allocator_cls=allocator_cls)
        if cache_bytes > 0:
            node.mcdram_cache = DirectMappedCache(
                cache_bytes,
                hit_bandwidth=mcdram_cfg.read_bandwidth,
                miss_bandwidth=ddr_cfg.read_bandwidth)
        return node

    raise ConfigError(f"unknown memory mode {memory_mode!r}")
