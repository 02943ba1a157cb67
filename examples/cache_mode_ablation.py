#!/usr/bin/env python
"""Flat mode + runtime prefetch vs KNL cache mode (paper future work).

The paper's §I motivates software management over hardware caching:
"caching could result in increased latency from conflict misses or
capacity misses", and §V promises a cache-mode comparison "in the future".
This ablation performs it on the model:

* **flat + multi-io** — the paper's system;
* **cache mode** — MCDRAM as a direct-mapped cache of DDR4: kernels see
  the miss-rate-dependent effective bandwidth of the cache model.

The crossover the model predicts: cache mode is competitive while the
per-iteration working set stays well under 16 GB (few conflict misses),
but degrades sharply once the sweep exceeds MCDRAM, while the runtime's
explicit prefetch keeps kernels at HBM speed.
"""

from repro import MemoryMode, OOCRuntimeBuilder, Stencil3D, StencilConfig
from repro.machine.knl import build_knl
from repro.sim.environment import Environment
from repro.units import GiB, MiB, format_time

SCALE = 16
MCDRAM = 16 * GiB // SCALE
DDR = 96 * GiB // SCALE


def flat_prefetch_time(total, block):
    built = OOCRuntimeBuilder("multi-io", cores=64, mcdram_capacity=MCDRAM,
                              ddr_capacity=DDR).build()
    cfg = StencilConfig(total_bytes=total, block_bytes=block, iterations=5)
    return Stencil3D(built, cfg).run().total_time


def cache_mode_time(total, block):
    """Analytic cache-mode estimate for the same sweep workload."""
    node = build_knl(Environment(), memory_mode=MemoryMode.CACHE,
                     mcdram_capacity=MCDRAM, ddr_capacity=DDR)
    cfg = StencilConfig(total_bytes=total, block_bytes=block, iterations=5)
    bytes_per_iter = 2 * total * cfg.sweep_traffic_factor
    kernel_time = node.mcdram_cache.sweep_time(total, bytes_per_iter * 5)
    compute_floor = (cfg.flops_per_task * cfg.n_chares * 5
                     / (node.config.core_flops * node.config.cores))
    return max(kernel_time, compute_floor)


def main():
    print(f"Stencil3D, 5 iterations, capacities scaled 1/{SCALE}\n")
    print(f"{'working set':>12s} {'flat+multi-io':>14s} {'cache mode':>12s} "
          f"{'flat wins by':>12s}")
    for ws_factor in (0.5, 0.9, 1.5, 2.0, 3.0):
        total = int(MCDRAM * ws_factor)
        block = 2 * MiB
        flat = flat_prefetch_time(total, block)
        cache = cache_mode_time(total, block)
        print(f"{ws_factor:>10.1f}x  {format_time(flat):>14s} "
              f"{format_time(cache):>12s} {cache / flat:>11.2f}x")


if __name__ == "__main__":
    main()
