"""Iterative SpMV (CG-style): a fourth bandwidth-sensitive workload.

Not in the paper's evaluation, but squarely in its motivation: sparse
matrix-vector products are the textbook bandwidth-bound kernel (arithmetic
intensity < 1 flop/byte), and iterative solvers re-touch the *same* matrix
blocks every iteration — the reuse pattern where eviction policy choices
(the paper's own-blocks rule vs demand-only LRU) matter most.

The matrix is a synthetic banded+random sparsity pattern drawn from a
named deterministic RNG stream; each chare owns a block row (``readonly``
matrix block), reads the shared ``x`` vector blocks its columns touch, and
writes its slice of ``y``.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

from repro.core.api import BuiltRuntime
from repro.errors import ConfigError
from repro.runtime.chare import Chare, NodeGroup
from repro.runtime.entry import entry
from repro.runtime.reduction import Reducer
from repro.sim.rand import RandomStreams
from repro.units import MiB

__all__ = ["SpMVConfig", "SpMVResult", "SpMVChare", "SpMV"]

#: flops per stored nonzero (multiply + add)
FLOPS_PER_NNZ = 2.0
#: bytes per stored nonzero (8B value + 4B column index, CSR-style)
BYTES_PER_NNZ = 12


@dataclasses.dataclass(frozen=True)
class SpMVConfig:
    """Workload shape for an iterated SpMV."""

    #: number of block rows (chares)
    block_rows: int = 64
    #: stored nonzero bytes per matrix block, on average
    block_bytes: int = 8 * MiB
    #: vector slice bytes per block row
    vector_bytes: int = 256 * 1024
    #: how many distinct x-blocks each block row reads (column coupling)
    couplings: int = 3
    iterations: int = 10
    #: banded fraction: couplings drawn near the diagonal vs uniformly
    banded: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.block_rows <= 0 or self.block_bytes <= 0:
            raise ConfigError(
                f"block_rows and block_bytes must be > 0, got "
                f"{self.block_rows} and {self.block_bytes}")
        if self.couplings < 1 or self.couplings > self.block_rows:
            raise ConfigError(
                f"couplings must be in [1, {self.block_rows}], got "
                f"{self.couplings}")
        if not 0.0 <= self.banded <= 1.0:
            raise ConfigError("banded must be in [0, 1]")
        if self.iterations <= 0:
            raise ConfigError(
                f"iterations must be > 0, got {self.iterations}")

    @property
    def nnz_per_block(self) -> int:
        return self.block_bytes // BYTES_PER_NNZ

    @property
    def flops_per_task(self) -> float:
        return self.nnz_per_block * FLOPS_PER_NNZ

    @property
    def total_matrix_bytes(self) -> int:
        return self.block_rows * self.block_bytes

    def coupling_pattern(self) -> list[tuple[int, ...]]:
        """Which x-blocks each block row reads (deterministic in seed)."""
        rng = RandomStreams(self.seed).stream("spmv-pattern")
        pattern: list[tuple[int, ...]] = []
        n = self.block_rows
        for row in range(n):
            cols = {row}
            while len(cols) < self.couplings:
                if rng.random() < self.banded:
                    offset = int(rng.integers(-2, 3))
                    cols.add((row + offset) % n)
                else:
                    cols.add(int(rng.integers(0, n)))
            pattern.append(tuple(sorted(cols)))
        return pattern


@dataclasses.dataclass
class SpMVResult:
    """Timing of one iterated SpMV run."""

    config: SpMVConfig
    strategy: str
    total_time: float
    iteration_times: list[float]
    tasks_completed: int

    @property
    def mean_iteration_time(self) -> float:
        return (sum(self.iteration_times) / len(self.iteration_times)
                if self.iteration_times else 0.0)


class SpMVVectors(NodeGroup):
    """Node-group cache of the shared x-vector blocks."""

    @entry
    def setup(self, config: SpMVConfig, barrier: Reducer) -> None:
        for i in range(config.block_rows):
            self.share_block(("x", i), config.vector_bytes)
        barrier.contribute()

    def x_block(self, index: int):
        return self.shared[("x", index)]


class SpMVChare(Chare):
    """One block row: y_i = A_i @ x[couplings(i)]."""

    @entry
    def setup(self, config: SpMVConfig, vectors: SpMVVectors,
              couplings: tuple[int, ...], barrier: Reducer) -> None:
        self.A = self.declare_block("A", config.block_bytes)
        self.x_blocks = [vectors.x_block(c) for c in couplings]
        self.y = self.declare_block("y", config.vector_bytes)
        self._tasks_done = 0
        barrier.contribute()

    @entry(prefetch=True, readonly=["A", "x_blocks"], writeonly=["y"])
    def multiply(self, reducer: Reducer) -> _t.Generator:
        cfg: SpMVConfig = self.array.app_config  # type: ignore[union-attr]
        result = yield from self.kernel(
            flops=cfg.flops_per_task,
            reads=[self.A] + list(self.x_blocks), writes=[self.y])
        self._tasks_done += 1
        reducer.contribute(result.duration)


class SpMV:
    """Driver: iterate y = A x with the same blocks every iteration."""

    def __init__(self, built: BuiltRuntime, config: SpMVConfig):
        self.built = built
        self.config = config
        self.runtime = built.runtime
        self.env = built.env
        self.pattern = config.coupling_pattern()

        self.vectors = self.runtime.create_node_group(SpMVVectors)
        vec_barrier = self.runtime.reducer(1, name="spmv-vectors")
        self.runtime.send(self.vectors, "setup", config, vec_barrier)
        self.runtime.run_until(vec_barrier.done)

        self.array = self.runtime.create_array(SpMVChare, config.block_rows,
                                               name="spmv")
        self.array.app_config = config  # type: ignore[attr-defined]
        barrier = self.runtime.reducer(config.block_rows, name="spmv-setup")
        for row in range(config.block_rows):
            self.array.send(row, "setup", config, self.vectors,
                            self.pattern[row], barrier)
        self.runtime.run_until(barrier.done)
        built.manager.finalize_placement()

    def run(self) -> SpMVResult:
        cfg = self.config
        start = self.env.now
        iteration_times: list[float] = []
        for it in range(cfg.iterations):
            t0 = self.env.now
            reducer = self.runtime.reducer(cfg.block_rows,
                                           name=f"spmv-iter{it}")
            self.array.broadcast("multiply", reducer)
            self.runtime.run_until(reducer.done)
            iteration_times.append(self.env.now - t0)
        tasks = sum(c._tasks_done for c in self.array)
        return SpMVResult(config=cfg, strategy=self.built.strategy.name,
                          total_time=self.env.now - start,
                          iteration_times=iteration_times,
                          tasks_completed=tasks)
