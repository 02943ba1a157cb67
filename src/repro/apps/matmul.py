"""Blocked matrix multiplication (paper §V-B).

"Matrix multiplication divides the work units into a 2 dimensional array of
chares.  The data is divided such that the entire 2D grid of elements for
input matrices A and B and output matrix C are distributed into blocks of
sub-rows X sub-columns across the 2D array of chares.  A and B input
matrices are readonly blocks and hence can be shared across chares."

Decomposition here: a ``G x G`` chare grid; chare *(i, j)* computes
``C[i,j] = A_i @ B_j`` where ``A_i`` is a row panel (``b x N``) and ``B_j``
a column panel (``N x b``), ``b = N / G``.  Panels are **node-group-shared
read-only blocks** — the reference-counting machinery keeps panels that
concurrent chares use resident, which is why the single-IO-thread strategy
keeps up on this workload (Figure 9): "when a read-only block is being used
by another chare, it is not evicted."

The dgemm itself is modelled after MKL's ``cblas_dgemm``: panel-resident
blocking means each task streams its two panels and its C block once while
doing ``2 b^2 N`` flops.  The paper pins MKL's internal scratch to DDR4 via
``MEMKIND_HBW_NODES=0``; ``mkl_scratch_fraction`` reproduces that extra
DDR4 traffic.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.core.api import BuiltRuntime
from repro.errors import ConfigError
from repro.runtime.chare import Chare, NodeGroup
from repro.runtime.entry import entry
from repro.runtime.loadbalance import block_cyclic_map
from repro.runtime.reduction import Reducer

__all__ = ["MatMulConfig", "MatMulResult", "MatMulChare", "MatMul"]

ELEMENT_BYTES = 8


@dataclasses.dataclass(frozen=True)
class MatMulConfig:
    """Workload shape for one blocked-matmul run.

    Paper Figure 9: total working set (A+B+C) of 24/36/54 GB, reduced
    working set held at ~6 GB by the decomposition.
    """

    #: square matrix dimension
    n: int = 16384
    #: chare grid dimension (G x G chares; panel width b = n / G)
    grid: int = 64
    #: effective traffic multiplier on the managed blocks: MKL's dgemm
    #: packs both panels into internal buffers before compute (one extra
    #: read+write sweep of each), so a task streams its panels about twice
    mkl_pack_factor: float = 2.0
    #: fraction of a task's traffic that is MKL-internal scratch, pinned to
    #: DDR4 as the paper does with MEMKIND_HBW_NODES=0
    mkl_scratch_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.n <= 0 or self.grid <= 0:
            raise ConfigError("n and grid must be > 0")
        if self.n % self.grid:
            raise ConfigError(
                f"matrix dim {self.n} not divisible by grid {self.grid}")
        if not 0.0 <= self.mkl_scratch_fraction < 1.0:
            raise ConfigError("mkl_scratch_fraction must be in [0, 1)")
        if self.mkl_pack_factor <= 0:
            raise ConfigError("mkl_pack_factor must be > 0")

    @property
    def block_dim(self) -> int:
        """Panel width b."""
        return self.n // self.grid

    @property
    def panel_bytes(self) -> int:
        """One row/column panel: b x N doubles."""
        return self.block_dim * self.n * ELEMENT_BYTES

    @property
    def c_block_bytes(self) -> int:
        return self.block_dim * self.block_dim * ELEMENT_BYTES

    @property
    def flops_per_task(self) -> float:
        """Full-k accumulation for one C block: 2 b^2 N."""
        return 2.0 * self.block_dim * self.block_dim * self.n

    @property
    def task_bytes(self) -> int:
        """Bytes one task streams: two panels + its C block."""
        return 2 * self.panel_bytes + self.c_block_bytes

    @classmethod
    def for_working_set(cls, total_ws: int, *, block_dim: int = 128,
                        **kwargs: _t.Any) -> "MatMulConfig":
        """Pick ``n``/``grid`` so A+B+C ≈ ``total_ws`` with panels of
        ``block_dim`` sub-rows (the paper varies total WS at fixed reduced
        WS; fixed ``block_dim`` keeps per-task intensity constant)."""
        if total_ws <= 0 or block_dim <= 0:
            raise ConfigError(
                f"working set and block_dim must be > 0, got {total_ws} "
                f"and {block_dim}")
        n_target = math.sqrt(total_ws / (3 * ELEMENT_BYTES))
        grid = max(1, round(n_target / block_dim))
        return cls(n=grid * block_dim, grid=grid, **kwargs)


@dataclasses.dataclass
class MatMulResult:
    """Timing of one blocked-matmul run."""

    config: MatMulConfig
    strategy: str
    total_time: float
    kernel_time_total: float
    tasks_completed: int

    @property
    def mean_kernel_time(self) -> float:
        return (self.kernel_time_total / self.tasks_completed
                if self.tasks_completed else 0.0)


class MatMulPanels(NodeGroup):
    """Node-group cache of the read-only A and B panels."""

    @entry
    def setup(self, config: MatMulConfig, barrier: Reducer) -> None:
        for i in range(config.grid):
            self.share_block(("A", i), config.panel_bytes)
            self.share_block(("B", i), config.panel_bytes)
        barrier.contribute()

    def panel(self, which: str, index: int):
        return self.shared[(which, index)]


class MatMulChare(Chare):
    """Chare (i, j): owns C[i,j]; reads shared panels A_i and B_j."""

    @entry
    def setup(self, config: MatMulConfig, panels: MatMulPanels,
              barrier: Reducer) -> None:
        i, j = self.index
        self.A = panels.panel("A", i)
        self.B = panels.panel("B", j)
        self.C = self.declare_block("C", config.c_block_bytes)
        self._kernel_time = 0.0
        self._tasks_done = 0
        barrier.contribute()

    @entry(prefetch=True, readonly=["A", "B"], readwrite=["C"])
    def multiply(self, reducer: Reducer) -> _t.Generator:
        """``cblas_dgemm`` over the panels (the ``[prefetch]`` task)."""
        cfg: MatMulConfig = self.array.app_config  # type: ignore[union-attr]
        duration = yield from self.kernel(
            flops=cfg.flops_per_task,
            reads=[self.A, self.B], writes=[self.C],
            traffic_scale=cfg.mkl_pack_factor)
        if cfg.mkl_scratch_fraction > 0.0:
            # MKL-internal scratch pinned to DDR4 (MEMKIND_HBW_NODES=0):
            # extra traffic on the slow pool, outside the managed blocks.
            scratch = cfg.task_bytes * cfg.mkl_scratch_fraction
            machine = self.runtime.machine  # type: ignore[union-attr]
            extra = yield from machine.run_kernel(
                0.0, {machine.ddr: (scratch / 2, scratch / 2)})
            self._kernel_time += extra
        self._kernel_time += duration
        self._tasks_done += 1
        reducer.contribute(duration)


class MatMul:
    """Driver: builds the panels, the chare grid, and runs the multiply."""

    def __init__(self, built: BuiltRuntime, config: MatMulConfig):
        self.built = built
        self.config = config
        self.runtime = built.runtime
        self.env = built.env
        self.panels = self.runtime.create_node_group(MatMulPanels)
        g = config.grid
        indices = [(i, j) for i in range(g) for j in range(g)]
        # Block-cyclic chare placement: concurrent tasks tile a pr x pc
        # patch, so panels are shared by running tasks and stay refcounted.
        pe_map = block_cyclic_map(indices, len(self.runtime.pes))
        self.array = self.runtime.create_array(MatMulChare, indices,
                                               pe_map=pe_map, name="matmul")
        self.array.app_config = config  # type: ignore[attr-defined]

        # Two-phase setup: the node group must publish the shared panels
        # before any chare looks them up.
        panel_barrier = self.runtime.reducer(1, name="matmul-panels")
        self.runtime.send(self.panels, "setup", config, panel_barrier)
        self.runtime.run_until(panel_barrier.done)
        barrier = self.runtime.reducer(len(indices), name="matmul-setup")
        self.array.broadcast("setup", config, self.panels, barrier)
        self.runtime.run_until(barrier.done)
        built.manager.finalize_placement()

    def run(self) -> MatMulResult:
        start = self.env.now
        reducer = self.runtime.reducer(len(self.array), name="matmul-done")
        self.array.broadcast("multiply", reducer)
        self.runtime.run_until(reducer.done)
        total = self.env.now - start
        kernel_total = sum(c._kernel_time for c in self.array)
        tasks = sum(c._tasks_done for c in self.array)
        return MatMulResult(
            config=self.config, strategy=self.built.strategy.name,
            total_time=total, kernel_time_total=kernel_total,
            tasks_completed=tasks)
