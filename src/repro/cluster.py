"""Multi-node clusters: the paper's second future-work direction.

"We will also perform comparisons ... in multi-node cluster settings."

A :class:`Cluster` instantiates N independent KNL-class nodes (each with
its own runtime, OOC manager and strategy) inside **one** simulation
environment, and connects them with a fabric modelled as fluid links (one
ingress and one egress port per node, Omni-Path-class defaults).  Remote
messages are charged latency + fair-share bandwidth on both endpoints'
ports, so fabric contention emerges the same way memory contention does.

:class:`ClusterStencil` partitions a Stencil3D grid into 1-D slabs, one
per node; interior ghost exchanges stay node-local (converse messages)
while slab-boundary exchanges cross the fabric.  Every node schedules its
slab out-of-core with its own strategy instance — demonstrating that the
paper's runtime composes to clusters with zero changes to the scheduling
layer.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps.stencil3d import StencilChare, StencilConfig
from repro.core.api import BuiltRuntime, OOCRuntimeBuilder
from repro.errors import ConfigError
from repro.sim.environment import Environment
from repro.sim.fluid import FluidNetwork
from repro.units import GiB, MiB

__all__ = ["FabricConfig", "Cluster", "ClusterStencil", "ClusterStencilResult"]


@dataclasses.dataclass(frozen=True)
class FabricConfig:
    """Inter-node network parameters (Omni-Path-class defaults)."""

    #: per-node injection/ejection bandwidth, B/s
    link_bandwidth: float = 12.5e9      # ~100 Gb/s
    #: one-way message latency, seconds
    latency: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0 or self.latency < 0:
            raise ConfigError("invalid fabric parameters")


class Cluster:
    """N independent nodes + a fabric, in one simulation."""

    def __init__(self, n_nodes: int, *, fabric: FabricConfig | None = None,
                 builder_factory: _t.Callable[[], OOCRuntimeBuilder]
                 | None = None,
                 **builder_kwargs: _t.Any):
        if n_nodes < 1:
            raise ConfigError("a cluster needs at least one node")
        self.env = Environment()
        self.fabric_config = fabric if fabric is not None else FabricConfig()
        self.fabric = FluidNetwork(self.env)
        self.nodes: list[BuiltRuntime] = []
        for rank in range(n_nodes):
            if builder_factory is not None:
                builder = builder_factory()
            else:
                builder = OOCRuntimeBuilder(**builder_kwargs)
            self.nodes.append(builder.build_into(self.env))
            self.fabric.add_link(f"n{rank}.out",
                                 self.fabric_config.link_bandwidth)
            self.fabric.add_link(f"n{rank}.in",
                                 self.fabric_config.link_bandwidth)
        self.remote_messages = 0
        self.remote_bytes = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def send_remote(self, src: int, dst: int, nbytes: int,
                    deliver: _t.Callable[[], None]) -> None:
        """Ship ``nbytes`` from node ``src`` to ``dst``; call ``deliver``
        on arrival.  Charged on both the source egress and destination
        ingress fabric ports plus the one-way latency."""
        if src == dst:
            deliver()
            return
        self.remote_messages += 1
        self.remote_bytes += nbytes
        flow = self.fabric.start_flow(
            float(nbytes), [f"n{src}.out", f"n{dst}.in"])

        def after_flow(_ev):
            self.env.timeout(self.fabric_config.latency).add_callback(
                lambda _e: deliver())

        flow.done.add_callback(after_flow)


@dataclasses.dataclass
class ClusterStencilResult:
    """Timing of one multi-node Stencil3D run."""

    nodes: int
    iterations: int
    total_time: float
    iteration_times: list[float]
    remote_messages: int
    remote_bytes: int

    @property
    def mean_iteration_time(self) -> float:
        return (sum(self.iteration_times) / len(self.iteration_times)
                if self.iteration_times else 0.0)


class ClusterStencil:
    """Stencil3D partitioned into per-node slabs over a cluster.

    Each node holds ``config.total_bytes`` of grid (so the global problem
    is ``n_nodes`` times larger) and runs its own out-of-core schedule;
    slab faces are exchanged over the fabric between iterations.
    """

    def __init__(self, cluster: Cluster, config: StencilConfig):
        self.cluster = cluster
        self.config = config
        self.env = cluster.env
        self.apps = []
        from repro.apps.stencil3d import Stencil3D
        for built in cluster.nodes:
            self.apps.append(Stencil3D(built, config))
        # bytes crossing the fabric per neighbouring-node pair per iteration:
        # one slab face each way.  A slab face is the grid cross-section.
        slab_face = int((config.total_bytes ** (2 / 3)))
        self.face_bytes = max(slab_face, 1)

    def run(self) -> ClusterStencilResult:
        cfg = self.config
        start = self.env.now
        iteration_times: list[float] = []
        for it in range(cfg.iterations):
            t0 = self.env.now
            # 1. halo exchange across the fabric (neighbouring slabs),
            #    concurrent in both directions on every internal boundary
            pending = []
            for rank in range(len(self.cluster) - 1):
                for src, dst in ((rank, rank + 1), (rank + 1, rank)):
                    done = self.env.event(name=f"halo{it}:{src}->{dst}")
                    self.cluster.send_remote(src, dst, self.face_bytes,
                                             done.succeed)
                    pending.append(done)
            if pending:
                self.env.run(until=self.env.all_of(pending))
            # 2. every node runs one local iteration (they share the env,
            #    so these overlap in simulated time)
            reducers = []
            for app in self.apps:
                reducer = app.runtime.reducer(len(app.array),
                                              name=f"cluster-iter{it}")
                app.array.broadcast("exchange", reducer)
                reducers.append(reducer.done)
            self.env.run(until=self.env.all_of(reducers))
            iteration_times.append(self.env.now - t0)
        return ClusterStencilResult(
            nodes=len(self.cluster), iterations=cfg.iterations,
            total_time=self.env.now - start,
            iteration_times=iteration_times,
            remote_messages=self.cluster.remote_messages,
            remote_bytes=self.cluster.remote_bytes)
