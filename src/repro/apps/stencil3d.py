"""Stencil3D: the paper's first evaluation workload (§V-A, Algorithm 2).

A 3-D grid of chares; each chare owns one contiguous grid block
(``readwrite`` dependence of its ``[prefetch]`` compute kernel) and
exchanges ghost faces with up to 6 neighbours each iteration::

    while not converged:
        receive ghosts from all neighbours
        update all grid elements
        send updated ghosts to neighbours

The compute kernel performs ``inner_sweeps`` temporally-tiled sub-sweeps
per iteration ("We perform 20 iterations to mimic tiling patterns that
increase computation to reduce the overhead incurred by data
communication", citing Ramanujam & Sadayappan) — one memory sweep of the
block per task, ``8 * inner_sweeps`` flops per element.
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro.core.api import BuiltRuntime
from repro.errors import ConfigError
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.reduction import Reducer
from repro.units import GiB, MiB

__all__ = ["StencilConfig", "StencilResult", "StencilChare", "Stencil3D"]

#: flops per grid element per stencil sweep (7-point: 6 adds + 1 mul + misc)
FLOPS_PER_ELEMENT_PER_SWEEP = 8.0
#: double precision
ELEMENT_BYTES = 8


@dataclasses.dataclass(frozen=True)
class StencilConfig:
    """Workload shape for one Stencil3D run.

    The paper's Figure 8 points: ``total_bytes=32 GiB``, ``block_bytes`` of
    32/64/128 MiB (reduced working sets of 2/4/8 GB over 64 PEs), 20
    iterations.
    """

    total_bytes: int = 32 * GiB
    block_bytes: int = 64 * MiB
    iterations: int = 20
    #: temporal tiling depth inside one task
    inner_sweeps: int = 20
    #: effective memory sweeps per task: of the ``inner_sweeps`` temporal
    #: tiles, how many miss the L2 tile and stream the block from memory
    #: ("Stencil3D accesses large amounts of data in quickly executing
    #: loops which makes it bandwidth sensitive")
    sweep_traffic_factor: float = 8.0
    #: fraction of a block's bytes exchanged as ghost faces per iteration
    ghost_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.total_bytes <= 0 or self.block_bytes <= 0:
            raise ConfigError(
                f"total_bytes and block_bytes must be > 0, got "
                f"{self.total_bytes} and {self.block_bytes}")
        if self.block_bytes > self.total_bytes:
            raise ConfigError("block larger than the total grid")
        if self.iterations <= 0 or self.inner_sweeps <= 0:
            raise ConfigError(
                f"iterations and inner_sweeps must be > 0, got "
                f"{self.iterations} and {self.inner_sweeps}")
        if self.sweep_traffic_factor <= 0:
            raise ConfigError("sweep_traffic_factor must be > 0")

    @property
    def n_chares(self) -> int:
        return max(1, self.total_bytes // self.block_bytes)

    @property
    def elements_per_block(self) -> int:
        return self.block_bytes // ELEMENT_BYTES

    @property
    def flops_per_task(self) -> float:
        return (self.elements_per_block * FLOPS_PER_ELEMENT_PER_SWEEP
                * self.inner_sweeps)

    def chare_grid(self) -> tuple[int, int, int]:
        """Near-cubic factorisation of the chare count."""
        n = self.n_chares
        best: tuple[int, int, int] | None = None
        best_surface = math.inf
        for x in range(1, int(round(n ** (1 / 3))) + 2):
            if n % x:
                continue
            rem = n // x
            for y in range(x, int(math.isqrt(rem)) + 1):
                if rem % y:
                    continue
                z = rem // y
                surface = x * y + y * z + x * z
                if surface < best_surface:
                    best_surface = surface
                    best = (x, y, z)
        if best is None:
            best = (1, 1, n)
        return best


@dataclasses.dataclass
class StencilResult:
    """Timing of one Stencil3D run."""

    config: StencilConfig
    strategy: str
    iteration_times: list[float]
    total_time: float
    kernel_time_total: float
    tasks_completed: int

    @property
    def mean_iteration_time(self) -> float:
        return (sum(self.iteration_times) / len(self.iteration_times)
                if self.iteration_times else 0.0)

    @property
    def mean_kernel_time(self) -> float:
        """Mean compute-kernel time per task (Figure 2's metric)."""
        return (self.kernel_time_total / self.tasks_completed
                if self.tasks_completed else 0.0)


class StencilChare(Chare):
    """One block of the 3-D grid."""

    @entry
    def setup(self, block_bytes: int, neighbours: tuple[tuple[int, ...], ...],
              ghost_bytes: int, barrier: Reducer) -> None:
        # CkIOHandle<double> grid — the bandwidth-sensitive dependence.
        self.grid = self.declare_block("grid", block_bytes)
        self.neighbours = neighbours
        self.ghost_bytes = ghost_bytes
        self._ghosts_received = 0
        self._kernel_time = 0.0
        self._tasks_done = 0
        barrier.contribute()

    @entry
    def exchange(self, reducer: Reducer) -> None:
        """Send ghost faces to every neighbour (Algorithm 2's send phase)."""
        if not self.neighbours:
            # Single chare: no communication, go straight to compute.
            self.send("compute_kernel", reducer)
            return
        array = self.array  # read once: chares hold their array weakly
        for nbr in self.neighbours:
            array.send(nbr, "recv_ghost", reducer, nbytes=self.ghost_bytes)

    @entry
    def recv_ghost(self, reducer: Reducer) -> None:
        """Collect ghosts; when all have arrived, trigger the kernel."""
        self._ghosts_received += 1
        if self._ghosts_received == len(self.neighbours):
            self._ghosts_received = 0
            self.send("compute_kernel", reducer)

    @entry(prefetch=True, readwrite=["grid"])
    def compute_kernel(self, reducer: Reducer) -> _t.Generator:
        """The ``[prefetch]``-annotated bandwidth-sensitive task."""
        cfg: StencilConfig = self.array.app_config  # type: ignore[union-attr]
        duration = yield from self.kernel(
            flops=cfg.flops_per_task, reads=[self.grid], writes=[self.grid],
            traffic_scale=cfg.sweep_traffic_factor)
        self._kernel_time += duration
        self._tasks_done += 1
        reducer.contribute(duration)


class Stencil3D:
    """Driver: builds the chare grid and runs the iteration loop."""

    def __init__(self, built: BuiltRuntime, config: StencilConfig):
        self.built = built
        self.config = config
        self.runtime = built.runtime
        self.env = built.env
        gx, gy, gz = config.chare_grid()
        self.grid_dims = (gx, gy, gz)
        indices = [(x, y, z) for x in range(gx) for y in range(gy)
                   for z in range(gz)]
        self.array = self.runtime.create_array(StencilChare, indices,
                                               name="stencil3d")
        self.array.app_config = config  # type: ignore[attr-defined]
        ghost_bytes = int(config.block_bytes * config.ghost_fraction / 6) or 1

        # Setup phase: declare every block, then place them per strategy.
        barrier = self.runtime.reducer(len(indices), name="stencil-setup")
        for idx in indices:
            self.array.send(idx, "setup", config.block_bytes,
                            self._neighbours(idx), ghost_bytes, barrier)
        self.runtime.run_until(barrier.done)
        built.manager.finalize_placement()

    def _neighbours(self, idx: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
        gx, gy, gz = self.grid_dims
        x, y, z = idx
        out = []
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            nx, ny, nz = x + dx, y + dy, z + dz
            if 0 <= nx < gx and 0 <= ny < gy and 0 <= nz < gz:
                out.append((nx, ny, nz))
        return tuple(out)

    def run(self) -> StencilResult:
        """Run the configured number of iterations; returns timings."""
        cfg = self.config
        iteration_times: list[float] = []
        start = self.env.now
        for it in range(cfg.iterations):
            t0 = self.env.now
            reducer = self.runtime.reducer(len(self.array),
                                           name=f"stencil-iter{it}")
            self.array.broadcast("exchange", reducer)
            self.runtime.run_until(reducer.done)
            iteration_times.append(self.env.now - t0)
        total = self.env.now - start
        kernel_total = sum(c._kernel_time for c in self.array)
        tasks = sum(c._tasks_done for c in self.array)
        return StencilResult(
            config=cfg, strategy=self.built.strategy.name,
            iteration_times=iteration_times, total_time=total,
            kernel_time_total=kernel_total, tasks_completed=tasks)
