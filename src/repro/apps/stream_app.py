"""STREAM as a chare application.

Shows the annotation API on the simplest possible bandwidth-sensitive
workload and backs the Figure 1 bench when run through the full runtime
(rather than the bare-machine :func:`repro.machine.stream.run_stream`).
Each chare owns three vectors (a, b, c) and runs a triad-style kernel.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.core.api import BuiltRuntime
from repro.errors import ConfigError
from repro.machine.stream import STREAM_KERNELS
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.reduction import Reducer
from repro.units import MiB

__all__ = ["StreamAppConfig", "StreamAppResult", "StreamChare", "StreamApp"]


@dataclasses.dataclass(frozen=True)
class StreamAppConfig:
    """One STREAM-over-chares run."""

    kernel: str = "triad"
    array_bytes: int = 64 * MiB
    chares: int = 64
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.kernel not in STREAM_KERNELS:
            raise ConfigError(f"unknown STREAM kernel {self.kernel!r}")
        if self.array_bytes <= 0 or self.chares <= 0 or self.repeats <= 0:
            raise ConfigError(
                f"array_bytes, chares, repeats must be > 0, got "
                f"{self.array_bytes}, {self.chares}, {self.repeats}")


@dataclasses.dataclass
class StreamAppResult:
    config: StreamAppConfig
    strategy: str
    elapsed_best: float
    bytes_touched: float

    @property
    def bandwidth(self) -> float:
        return (self.bytes_touched / self.elapsed_best
                if self.elapsed_best > 0 else 0.0)


class StreamChare(Chare):
    """One STREAM worker with its a/b/c vectors."""

    @entry
    def setup(self, config: StreamAppConfig, barrier: Reducer) -> None:
        self.a = self.declare_block("a", config.array_bytes)
        self.b = self.declare_block("b", config.array_bytes)
        self.c = self.declare_block("c", config.array_bytes)
        barrier.contribute()

    @entry(prefetch=True, writeonly=["a"], readonly=["b", "c"])
    def triad(self, reducer: Reducer) -> _t.Generator:
        cfg: StreamAppConfig = self.array.app_config  # type: ignore[union-attr]
        reads, writes = STREAM_KERNELS[cfg.kernel]
        read_blocks = [self.b, self.c][:reads]
        duration = yield from self.kernel(
            flops=0.0, reads=read_blocks, writes=[self.a])
        reducer.contribute(duration)


class StreamApp:
    """Driver for STREAM over the annotated runtime."""

    def __init__(self, built: BuiltRuntime, config: StreamAppConfig):
        self.built = built
        self.config = config
        self.runtime = built.runtime
        self.env = built.env
        self.array = self.runtime.create_array(StreamChare, config.chares,
                                               name="stream")
        self.array.app_config = config  # type: ignore[attr-defined]
        barrier = self.runtime.reducer(config.chares, name="stream-setup")
        self.array.broadcast("setup", config, barrier)
        self.runtime.run_until(barrier.done)
        built.manager.finalize_placement()

    def run(self) -> StreamAppResult:
        cfg = self.config
        reads, writes = STREAM_KERNELS[cfg.kernel]
        best = float("inf")
        for rep in range(cfg.repeats):
            t0 = self.env.now
            reducer = self.runtime.reducer(cfg.chares,
                                           name=f"stream-rep{rep}")
            self.array.broadcast("triad", reducer)
            self.runtime.run_until(reducer.done)
            best = min(best, self.env.now - t0)
        touched = float((reads + writes) * cfg.array_bytes * cfg.chares)
        return StreamAppResult(config=cfg, strategy=self.built.strategy.name,
                               elapsed_best=best, bytes_touched=touched)
