"""repro — a memory-heterogeneity-aware runtime system, reproduced.

Reproduction of *A Memory Heterogeneity-Aware Runtime System for
Bandwidth-Sensitive HPC Applications* (Chandrasekar, Ni, Kale — IPDPSW
2017) as a deterministic discrete-event-simulated stack:

* :mod:`repro.sim` — DES kernel + max-min fair fluid bandwidth model;
* :mod:`repro.mem` — heterogeneous memory substrate (blocks, devices,
  allocators, the ``numa_alloc_onnode``/``memcpy``/``numa_free`` mover);
* :mod:`repro.machine` — KNL-class node models and STREAM;
* :mod:`repro.runtime` — Charm++-flavoured chares/entry-methods/converse;
* :mod:`repro.core` — the paper's contribution: the out-of-core prefetch
  and eviction scheduling strategies;
* :mod:`repro.apps` — Stencil3D, MatMul, STREAM, Jacobi2D workloads;
* :mod:`repro.trace` — Projections-style timelines;
* :mod:`repro.bench` — per-figure experiment harness.

Quickstart::

    from repro import OOCRuntimeBuilder, Stencil3D, StencilConfig
    from repro.units import GiB, MiB

    built = OOCRuntimeBuilder("multi-io", mcdram_capacity=GiB,
                              ddr_capacity=6 * GiB).build()
    app = Stencil3D(built, StencilConfig(total_bytes=2 * GiB,
                                         block_bytes=16 * MiB,
                                         iterations=5))
    print(app.run().total_time)
"""

from repro.config import (
    ClusterMode,
    DeviceConfig,
    MachineConfig,
    MemoryMode,
    knl_config,
    nvm_dram_config,
)
from repro.core.api import BuiltRuntime, OOCRuntimeBuilder
from repro.core import (
    OOCManager,
    OOCTask,
    HBMTracker,
    EvictionPolicy,
    OwnBlocksEviction,
    LRUEviction,
    STRATEGIES,
    make_strategy,
)
from repro.machine import build_knl, build_machine, run_stream
from repro.mem import AccessIntent, BlockState, DataBlock
from repro.runtime import Chare, ChareArray, CharmRuntime, NodeGroup, entry
from repro.sim import Environment
from repro.apps import (
    MatMul,
    MatMulConfig,
    Stencil3D,
    StencilConfig,
    StreamApp,
    StreamAppConfig,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # config / machine
    "ClusterMode", "DeviceConfig", "MachineConfig", "MemoryMode",
    "knl_config", "nvm_dram_config", "build_knl", "build_machine",
    "run_stream",
    # core API
    "BuiltRuntime", "OOCRuntimeBuilder", "OOCManager", "OOCTask",
    "HBMTracker", "EvictionPolicy", "OwnBlocksEviction", "LRUEviction",
    "STRATEGIES", "make_strategy",
    # memory & runtime
    "AccessIntent", "BlockState", "DataBlock",
    "Chare", "ChareArray", "CharmRuntime", "NodeGroup", "entry",
    "Environment",
    # applications
    "Stencil3D", "StencilConfig", "MatMul", "MatMulConfig",
    "StreamApp", "StreamAppConfig", "Jacobi2D", "JacobiConfig",
]


def __getattr__(name: str):
    # Jacobi2D and JacobiConfig load lazily: see repro.apps
    if name in ("Jacobi2D", "JacobiConfig"):
        from repro import apps

        return getattr(apps, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
