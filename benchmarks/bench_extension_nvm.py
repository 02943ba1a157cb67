"""Extension — NVM+DRAM tiering (the paper's conclusion).

"Benefits were shown on a heterogeneous memory architecture where memory
nodes differ in their bandwidth.  Architectures with heterogeneity in both
latency and bandwidth would benefit even more.  We plan to extend this
implementation to other heterogeneous memory architectures."

The strategies are tier-agnostic (they talk to NUMA nodes 0/1), so
pointing the runtime at an Optane-class NVM (slow in bandwidth *and*
latency) + DRAM node requires zero new scheduling code.  This bench checks
the conclusion's prediction: the multi-IO speedup over Naive is larger on
NVM+DRAM than on the KNL configuration with the same capacity ratios.
"""

from repro.apps.stencil3d import Stencil3D, StencilConfig
from repro.config import nvm_dram_config
from repro.core.api import OOCRuntimeBuilder
from repro.units import GiB, MiB

FAST = 1 * GiB            # fast-tier capacity (scaled)
SLOW = 6 * GiB
TOTAL = 2 * GiB           # 2x over-subscription of the fast tier
BLOCK = 4 * MiB


def _speedup(machine_config=None):
    times = {}
    for strategy in ("naive", "multi-io"):
        if machine_config is not None:
            built = OOCRuntimeBuilder(strategy,
                                      machine_config=machine_config).build()
        else:
            built = OOCRuntimeBuilder(strategy, cores=64,
                                      mcdram_capacity=FAST,
                                      ddr_capacity=SLOW).build()
        cfg = StencilConfig(total_bytes=TOTAL, block_bytes=BLOCK,
                            iterations=3)
        times[strategy] = Stencil3D(built, cfg).run().total_time
    return times["naive"] / times["multi-io"]


def test_extension_nvm_dram_benefits_more(benchmark):
    knl_speedup = _speedup()
    nvm_speedup = benchmark.pedantic(
        _speedup,
        args=(nvm_dram_config(cores=64, dram_capacity=FAST,
                              nvm_capacity=SLOW),),
        rounds=1, iterations=1)
    print(f"\nKNL (bandwidth-only gap):   multi-io speedup {knl_speedup:.2f}x")
    print(f"NVM+DRAM (bw + latency gap): multi-io speedup {nvm_speedup:.2f}x")
    # the conclusion's prediction
    assert nvm_speedup > knl_speedup
    assert nvm_speedup > 2.0
