"""User-facing convenience API.

The typical application (compare §IV-A's ``.ci`` excerpt)::

    from repro.core.api import OOCRuntimeBuilder
    from repro.runtime import Chare, entry

    class Compute(Chare):
        @entry
        def setup(self, nbytes):
            self.A = self.declare_block("A", nbytes)   # CkIOHandle<double> A
            self.B = self.declare_block("B", nbytes)

        @entry(prefetch=True, readwrite=["A"], writeonly=["B"])
        def compute_kernel(self, reducer):
            yield from self.kernel(flops=..., reads=[self.A], writes=[self.B])
            reducer.contribute()

    builder = OOCRuntimeBuilder(strategy="multi-io")
    rt, manager = builder.build()
    ...

``OOCRuntimeBuilder`` wires machine, runtime, manager and strategy with the
paper's defaults so examples and benchmarks stay short.
"""

from __future__ import annotations

import typing as _t

from repro.config import ClusterMode, MachineConfig, MemoryMode
from repro.core.eviction import EvictionPolicy
from repro.core.manager import OOCManager
from repro.core.strategies import Strategy, make_strategy
from repro.machine.knl import build_knl, build_machine
from repro.machine.node import MachineNode
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment
from repro.units import GiB

__all__ = ["OOCRuntimeBuilder", "BuiltRuntime"]


class BuiltRuntime(_t.NamedTuple):
    """Everything a driver needs, from one builder call."""

    env: Environment
    machine: MachineNode
    runtime: CharmRuntime
    manager: OOCManager
    strategy: Strategy


class OOCRuntimeBuilder:
    """Builds env + KNL machine + runtime + OOC manager in one call."""

    def __init__(self, strategy: str | Strategy = "multi-io", *,
                 cores: int = 64,
                 memory_mode: MemoryMode = MemoryMode.FLAT,
                 cluster_mode: ClusterMode = ClusterMode.ALL_TO_ALL,
                 mcdram_capacity: int | str = 16 * GiB,
                 ddr_capacity: int | str = 96 * GiB,
                 eviction: EvictionPolicy | None = None,
                 node_level_run_queue: bool = False,
                 machine_config: MachineConfig | None = None):
        #: explicit machine description; overrides the KNL knobs when set
        #: (e.g. :func:`repro.config.nvm_dram_config`)
        self.machine_config = machine_config
        self.strategy_spec = strategy
        self.cores = cores
        self.memory_mode = memory_mode
        self.cluster_mode = cluster_mode
        self.mcdram_capacity = mcdram_capacity
        self.ddr_capacity = ddr_capacity
        self.eviction = eviction
        self.node_level_run_queue = node_level_run_queue

    def build(self) -> BuiltRuntime:
        """Build a complete stack in a fresh environment."""
        return self.build_into(Environment())

    def build_into(self, env: Environment) -> BuiltRuntime:
        """Build a complete stack bound to an existing environment.

        Lets a caller prepare the environment first, e.g. install a
        seeded tie-breaker or an observer that needs the env.
        """
        if self.machine_config is not None:
            machine = build_machine(env, self.machine_config)
        else:
            machine = build_knl(
                env, cores=self.cores, memory_mode=self.memory_mode,
                cluster_mode=self.cluster_mode,
                mcdram_capacity=self.mcdram_capacity,
                ddr_capacity=self.ddr_capacity)
        runtime = CharmRuntime(machine)
        if isinstance(self.strategy_spec, Strategy):
            strategy = self.strategy_spec
        else:
            strategy = make_strategy(self.strategy_spec)
        manager = OOCManager(
            runtime, strategy,
            eviction=self.eviction,
            node_level_run_queue=self.node_level_run_queue)
        return BuiltRuntime(env, machine, runtime, manager, strategy)
