"""Cores, tiles and SMT threads (paper §III-B, Figure 4).

KNL packs 2 physical cores per tile (34 tiles, 68 cores, 4-way SMT → 272
hardware threads).  The runtime maps one worker PE per physical core; the
paper pins each Multiple-IO-threads IO thread to an SMT sibling of its
worker "so as to not increase the usage of the number of physical cores"
(§IV-B).  In the model an IO thread is a simulated process of its own
that takes no worker core, so no thread is pinned explicitly.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError

__all__ = ["HardwareThread", "Core", "Tile", "build_cpu"]


@dataclasses.dataclass(frozen=True)
class HardwareThread:
    """One SMT context on a core."""

    global_id: int
    core_id: int
    smt_lane: int


class Core:
    """A physical core with its SMT lanes."""

    def __init__(self, core_id: int, tile_id: int, smt: int,
                 flops: float, mem_bandwidth: float):
        if smt < 1:
            raise ConfigError("smt must be >= 1")
        self.core_id = core_id
        self.tile_id = tile_id
        #: peak FLOP/s of this core
        self.flops = flops
        #: memory bandwidth one core can draw by itself, B/s
        self.mem_bandwidth = mem_bandwidth
        self.threads = tuple(
            HardwareThread(global_id=core_id * smt + lane,
                           core_id=core_id, smt_lane=lane)
            for lane in range(smt))

    def __repr__(self) -> str:
        return f"<Core {self.core_id} tile={self.tile_id} smt={len(self.threads)}>"


class Tile:
    """Two cores sharing an L2 slice (KNL's tile)."""

    def __init__(self, tile_id: int, cores: tuple[Core, ...]):
        self.tile_id = tile_id
        self.cores = cores

    def __repr__(self) -> str:
        ids = ",".join(str(c.core_id) for c in self.cores)
        return f"<Tile {self.tile_id} cores=[{ids}]>"


def build_cpu(cores: int, tiles: int, smt: int, core_flops: float,
              core_mem_bandwidth: float) -> tuple[tuple[Core, ...], tuple[Tile, ...]]:
    """Lay out ``cores`` over ``tiles`` (2 per tile, KNL style)."""
    if cores <= 0 or tiles <= 0:
        raise ConfigError("cores and tiles must be > 0")
    per_tile = max(1, -(-cores // tiles))  # ceil
    core_objs = tuple(
        Core(core_id=i, tile_id=i // per_tile, smt=smt,
             flops=core_flops, mem_bandwidth=core_mem_bandwidth)
        for i in range(cores))
    tile_objs: list[Tile] = []
    for tid in range(-(-cores // per_tile)):
        members = tuple(c for c in core_objs if c.tile_id == tid)
        tile_objs.append(Tile(tid, members))
    return core_objs, tuple(tile_objs)
