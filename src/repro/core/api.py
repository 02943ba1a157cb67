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
from repro.mem.allocator import PagedAllocator
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment
from repro.trace.tracer import Tracer
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
                 hbm_headroom: int = 0,
                 queue_lock_cost: float = 1e-6,
                 node_level_run_queue: bool = False,
                 allocator_cls: type = PagedAllocator,
                 message_latency: float = 2e-6,
                 trace: bool = True,
                 strategy_kwargs: dict[str, _t.Any] | None = None,
                 machine_config: MachineConfig | None = None,
                 fluid_solver: str | None = None):
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
        self.hbm_headroom = hbm_headroom
        self.queue_lock_cost = queue_lock_cost
        self.node_level_run_queue = node_level_run_queue
        self.allocator_cls = allocator_cls
        self.message_latency = message_latency
        self.trace = trace
        self.strategy_kwargs = strategy_kwargs or {}
        #: fluid bandwidth solver: "incremental" (the default when None)
        #: or "full" (the eager cross-check oracle)
        self.fluid_solver = fluid_solver

    def build(self) -> BuiltRuntime:
        """Build a complete stack in a fresh environment."""
        return self.build_into(Environment())

    def build_into(self, env: Environment) -> BuiltRuntime:
        """Build a complete stack bound to an existing environment.

        Used by :class:`repro.cluster.Cluster` to place several nodes in
        one simulation.
        """
        if self.machine_config is not None:
            machine = build_machine(env, self.machine_config,
                                    allocator_cls=self.allocator_cls,
                                    fluid_solver=self.fluid_solver)
        else:
            machine = build_knl(
                env, cores=self.cores, memory_mode=self.memory_mode,
                cluster_mode=self.cluster_mode,
                mcdram_capacity=self.mcdram_capacity,
                ddr_capacity=self.ddr_capacity,
                allocator_cls=self.allocator_cls,
                fluid_solver=self.fluid_solver)
        tracer = Tracer(env, enabled=self.trace)
        runtime = CharmRuntime(machine, tracer=tracer,
                               message_latency=self.message_latency)
        if isinstance(self.strategy_spec, Strategy):
            strategy = self.strategy_spec
        else:
            strategy = make_strategy(self.strategy_spec,
                                     **self.strategy_kwargs)
        manager = OOCManager(
            runtime, strategy,
            eviction=self.eviction,
            hbm_headroom=self.hbm_headroom,
            queue_lock_cost=self.queue_lock_cost,
            node_level_run_queue=self.node_level_run_queue)
        return BuiltRuntime(env, machine, runtime, manager, strategy)
