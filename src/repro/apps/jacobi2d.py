"""Jacobi 2-D: a 5-point iterative solver with a convergence criterion.

Not in the paper's evaluation; included as the "trivial code changes"
demonstration — a second stencil-class application adopting the
``[prefetch]`` annotation unchanged — and as an example of *data-dependent*
termination (the reduction carries the residual, and the driver stops when
it drops below tolerance).

The residual sequence is computed functionally on a small numpy mirror of
the grid (one coarse cell per chare), so convergence is real, not scripted.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.core.api import BuiltRuntime
from repro.errors import ConfigError
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.reduction import Reducer
from repro.units import MiB

__all__ = ["JacobiConfig", "JacobiResult", "JacobiChare", "Jacobi2D"]

FLOPS_PER_ELEMENT = 6.0
ELEMENT_BYTES = 8


@dataclasses.dataclass(frozen=True)
class JacobiConfig:
    """Workload shape for the Jacobi solver."""

    chare_grid: int = 8
    block_bytes: int = 32 * MiB
    tolerance: float = 1e-3
    max_iterations: int = 100
    #: coarse functional mirror: cells per chare side
    mirror_cells: int = 4

    def __post_init__(self) -> None:
        if self.chare_grid <= 0 or self.block_bytes <= 0:
            raise ConfigError("chare_grid and block_bytes must be > 0")
        if self.tolerance <= 0 or self.max_iterations <= 0:
            raise ConfigError("tolerance and max_iterations must be > 0")

    @property
    def n_chares(self) -> int:
        return self.chare_grid * self.chare_grid

    @property
    def flops_per_task(self) -> float:
        return (self.block_bytes / ELEMENT_BYTES) * FLOPS_PER_ELEMENT


@dataclasses.dataclass
class JacobiResult:
    config: JacobiConfig
    strategy: str
    iterations_run: int
    converged: bool
    final_residual: float
    total_time: float
    residual_history: list[float]


class JacobiChare(Chare):
    """One block of the 2-D domain, with a coarse functional mirror."""

    @entry
    def setup(self, config: JacobiConfig, mirror: np.ndarray,
              barrier: Reducer) -> None:
        self.u = self.declare_block("u", config.block_bytes, payload=mirror)
        self.config = config
        barrier.contribute()

    @entry(prefetch=True, readwrite=["u"])
    def sweep(self, neighbours: dict, reducer: Reducer) -> _t.Generator:
        """One Jacobi sweep: simulated time + functional coarse update."""
        cfg = self.config
        duration = yield from self.kernel(
            flops=cfg.flops_per_task, reads=[self.u], writes=[self.u])
        # Functional part: 5-point average on the coarse mirror with ghost
        # columns/rows taken from neighbour mirrors (previous iterate).
        old = self.u.payload
        padded = np.pad(old, 1, mode="edge")
        for side, ghost in neighbours.items():
            if ghost is None:
                continue
            if side == "n":
                padded[0, 1:-1] = ghost
            elif side == "s":
                padded[-1, 1:-1] = ghost
            elif side == "w":
                padded[1:-1, 0] = ghost
            elif side == "e":
                padded[1:-1, -1] = ghost
        new = 0.25 * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                      + padded[1:-1, :-2] + padded[1:-1, 2:])
        residual = float(np.max(np.abs(new - old)))
        self.u.payload = new
        reducer.contribute((residual, duration))


class Jacobi2D:
    """Driver: sweeps until the global residual drops below tolerance."""

    def __init__(self, built: BuiltRuntime, config: JacobiConfig, *,
                 seed: int = 0):
        self.built = built
        self.config = config
        self.runtime = built.runtime
        self.env = built.env
        g = config.chare_grid
        indices = [(i, j) for i in range(g) for j in range(g)]
        self.array = self.runtime.create_array(JacobiChare, indices,
                                               name="jacobi2d")
        rng = np.random.default_rng(seed)
        barrier = self.runtime.reducer(len(indices), name="jacobi-setup")
        for idx in indices:
            mirror = rng.random((config.mirror_cells, config.mirror_cells))
            self.array.send(idx, "setup", config, mirror, barrier)
        self.runtime.run_until(barrier.done)
        built.manager.finalize_placement()

    def _ghosts_for(self, idx: tuple[int, int]) -> dict:
        """Previous-iterate boundary rows/columns from the 4 neighbours."""
        g = self.config.chare_grid
        i, j = idx
        out: dict[str, np.ndarray | None] = {}
        def edge(ni: int, nj: int, take: str):
            if not (0 <= ni < g and 0 <= nj < g):
                return None
            mirror = self.array[(ni, nj)].u.payload
            return {"s": mirror[-1, :], "n": mirror[0, :],
                    "e": mirror[:, -1], "w": mirror[:, 0]}[take].copy()
        out["n"] = edge(i - 1, j, "s")
        out["s"] = edge(i + 1, j, "n")
        out["w"] = edge(i, j - 1, "e")
        out["e"] = edge(i, j + 1, "w")
        return out

    def run(self) -> JacobiResult:
        cfg = self.config
        start = self.env.now
        history: list[float] = []
        converged = False
        residual = float("inf")
        for it in range(cfg.max_iterations):
            reducer = self.runtime.reducer(
                cfg.n_chares, name=f"jacobi-iter{it}",
                combiner=lambda vals: (max(v[0] for v in vals),
                                       sum(v[1] for v in vals)))
            ghost_snapshots = {idx: self._ghosts_for(idx)
                               for idx in self.array.elements}
            for idx in self.array.elements:
                self.array.send(idx, "sweep", ghost_snapshots[idx], reducer)
            residual, _kernel = self.runtime.run_until(reducer.done)
            history.append(residual)
            if residual < cfg.tolerance:
                converged = True
                break
        return JacobiResult(
            config=cfg, strategy=self.built.strategy.name,
            iterations_run=len(history), converged=converged,
            final_residual=residual, total_time=self.env.now - start,
            residual_history=history)
