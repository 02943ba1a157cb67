"""Ablation benches for the design choices DESIGN.md calls out.

1. **Pool allocator** (§IV-C future work): "the creating of space in
   destination memory could be avoided if we maintain a memory pool" —
   measure migration with FreeList vs Pool allocators.
2. **memcpy vs migrate_pages** (§IV-C, citing Perarnau et al.): memcpy is
   the more scalable mechanism.
3. **Eviction policy**: the paper's own-blocks rule vs demand-only LRU on
   a reuse-heavy workload.
4. **Node-level run queue** (§IV-B planned improvement) on Stencil3D.
5. **Cluster mode**: All-to-All (the paper's pick "has the most impact on
   memory bandwidth") vs Quadrant.
"""

import pytest

from repro.apps.matmul import MatMul, MatMulConfig
from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.config import ClusterMode
from repro.core.api import OOCRuntimeBuilder
from repro.core.eviction import LRUEviction, OwnBlocksEviction
from repro.machine.knl import build_knl
from repro.mem.allocator import FreeListAllocator, PoolAllocator
from repro.mem.block import DataBlock
from repro.sim.environment import Environment
from repro.units import GiB, MiB


def _migrate_many(allocator_cls, *, use_migrate_pages=False, blocks=64,
                  nbytes=8 * MiB):
    env = Environment()
    node = build_knl(env, mcdram_capacity=GiB, ddr_capacity=8 * GiB,
                     allocator_cls=allocator_cls)
    total = 0.0
    for round_ in range(3):
        items = []
        for i in range(blocks):
            block = DataBlock(f"r{round_}b{i}", nbytes)
            node.registry.register(block)
            node.topology.place_block(block, node.ddr)
            items.append(block)
        start = env.now
        move = (node.mover.move_migrate_pages if use_migrate_pages
                else node.mover.move)
        procs = [env.process(move(b, node.hbm)) for b in items]
        env.run(until=env.all_of(procs))
        total += env.now - start
        for block in items:
            node.topology.release_block(block)
            node.registry.unregister(block)
    return total


def test_ablation_pool_allocator_reduces_alloc_cost(benchmark):
    """Paper §IV-C: pooling removes the numa_alloc_onnode cost on reuse."""
    t_freelist = _migrate_many(FreeListAllocator)
    t_pool = benchmark.pedantic(_migrate_many, args=(PoolAllocator,),
                                rounds=1, iterations=1)
    print(f"\nfreelist={t_freelist:.6f}s pool={t_pool:.6f}s "
          f"saving={(1 - t_pool / t_freelist):.2%}")
    assert t_pool < t_freelist


def test_ablation_memcpy_beats_migrate_pages(benchmark):
    """Paper §IV-C, citing [11]: memcpy is the more scalable mechanism."""
    t_memcpy = _migrate_many(FreeListAllocator)
    t_migrate = benchmark.pedantic(
        _migrate_many, args=(FreeListAllocator,),
        kwargs={"use_migrate_pages": True}, rounds=1, iterations=1)
    print(f"\nmemcpy={t_memcpy:.6f}s migrate_pages={t_migrate:.6f}s")
    assert t_memcpy < t_migrate


def _matmul_time(eviction):
    built = OOCRuntimeBuilder(
        "multi-io", cores=64, mcdram_capacity=GiB, ddr_capacity=6 * GiB,
        eviction=eviction).build()
    cfg = MatMulConfig.for_working_set(int(2.25 * GiB), block_dim=96)
    app = MatMul(built, cfg)
    return app.run().total_time


def test_ablation_eviction_policy_on_reuse_workload(benchmark):
    """Own-blocks (paper) vs LRU-on-demand under panel reuse: demand-only
    eviction never does useless eager work, so it must not lose."""
    t_own = _matmul_time(OwnBlocksEviction())
    t_lru = benchmark.pedantic(_matmul_time, args=(LRUEviction(),),
                               rounds=1, iterations=1)
    print(f"\nown-blocks={t_own:.4f}s lru={t_lru:.4f}s")
    assert t_lru < t_own * 1.25


def _stencil_time(node_level):
    built = OOCRuntimeBuilder(
        "multi-io", cores=64, mcdram_capacity=GiB, ddr_capacity=6 * GiB,
        node_level_run_queue=node_level).build()
    cfg = StencilConfig(total_bytes=2 * GiB, block_bytes=4 * MiB,
                        iterations=3)
    app = Stencil3D(built, cfg)
    return app.run().total_time


def test_ablation_node_level_run_queue(benchmark):
    """§IV-B: 'Another mechanism to mitigate load imbalance could be by
    using a node-level run queue.'  It must not hurt, and usually helps."""
    t_per_pe = _stencil_time(False)
    t_node = benchmark.pedantic(_stencil_time, args=(True,),
                                rounds=1, iterations=1)
    print(f"\nper-PE runq={t_per_pe:.4f}s node-level runq={t_node:.4f}s")
    assert t_node < t_per_pe * 1.15


def test_ablation_cluster_mode(benchmark):
    """Quadrant mode's shorter mesh routes give slightly better bandwidth;
    the paper picked All-to-All as the most bandwidth-stressed mode."""

    def run(mode):
        built = OOCRuntimeBuilder(
            "multi-io", cores=64, mcdram_capacity=GiB, ddr_capacity=6 * GiB,
            cluster_mode=mode).build()
        cfg = StencilConfig(total_bytes=2 * GiB, block_bytes=4 * MiB,
                            iterations=3)
        return Stencil3D(built, cfg).run().total_time

    t_a2a = run(ClusterMode.ALL_TO_ALL)
    t_quad = benchmark.pedantic(run, args=(ClusterMode.QUADRANT,),
                                rounds=1, iterations=1)
    print(f"\nall-to-all={t_a2a:.4f}s quadrant={t_quad:.4f}s")
    assert t_quad < t_a2a


def _spmv_fit_speedup(eviction):
    """DDR4-only time over multi-IO time on a fitting iterated SpMV."""
    from repro.apps.spmv import SpMV, SpMVConfig

    cfg = SpMVConfig(block_rows=48, block_bytes=4 * MiB, iterations=8)
    times = {}
    for strategy, policy in (("ddr-only", None), ("multi-io", eviction)):
        built = OOCRuntimeBuilder(
            strategy, cores=32, mcdram_capacity=256 * MiB,
            ddr_capacity=4 * GiB, eviction=policy).build()
        times[strategy] = SpMV(built, cfg).run().total_time
    return times["ddr-only"] / times["multi-io"]


def test_ablation_eager_eviction_wastes_iterative_reuse(benchmark):
    """On an iterative workload that fits in HBM, the paper's eager
    own-blocks policy discards blocks between iterations (speedup ~1x);
    demand-only LRU keeps them resident and wins ~2x."""
    own = _spmv_fit_speedup(OwnBlocksEviction())
    lru = benchmark.pedantic(_spmv_fit_speedup, args=(LRUEviction(),),
                             rounds=1, iterations=1)
    print(f"\nfitting SpMV speedup vs ddr-only: own-blocks={own:.2f}x "
          f"lru={lru:.2f}x")
    assert lru > 1.5
    assert lru > own * 1.5
