"""Data movement between memory devices (paper §IV-C).

The paper moves a block with three userspace steps::

    dst = numa_alloc_onnode(size, dst_node)   # create space at destination
    memcpy(dst, src, size)                    # copy
    numa_free(src)                            # free source

:class:`DataMover` reproduces that pipeline in simulated time:

* the allocation and free steps cost what the destination/source allocators
  say they cost (so the :class:`~repro.mem.allocator.PoolAllocator`
  optimisation is visible end to end);
* the ``memcpy`` is a fluid flow crossing the **source read port and the
  destination write port**, so its rate is the max-min share of the slower
  of the two — with 64 concurrent movers this reproduces the Figure 7 cost
  curves, including HBM→DDR4 being slightly costlier than DDR4→HBM (the
  DDR4 write port is the weakest link on KNL);
* a single mover thread is additionally capped at ``per_thread_copy_bw``
  (one core cannot saturate MCDRAM by itself).

``migrate_pages``-style movement is also modelled for the ablation the paper
cites ([11]: memcpy projected more scalable on KNL than migrate_pages).
"""

from __future__ import annotations

import dataclasses
import math
import typing as _t

from repro import hooks as _probe
from repro.errors import BlockStateError, CapacityError
from repro.mem.block import DataBlock
from repro.mem.device import MemoryDevice
from repro.mem.topology import MemoryTopology
from repro.sim.environment import Environment

__all__ = ["MoveResult", "DataMover"]

#: Linux base page size; migrate_pages works at this granularity.
PAGE_SIZE = 4096


@dataclasses.dataclass
class MoveResult:
    """Timing breakdown of one block move."""

    block: DataBlock
    src: str
    dst: str
    nbytes: int
    started_at: float
    finished_at: float
    alloc_time: float
    copy_time: float
    free_time: float

    @property
    def total_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def effective_bandwidth(self) -> float:
        return self.nbytes / self.copy_time if self.copy_time > 0 else math.inf


#: syscall+kernel bookkeeping per page for migrate_pages mode, seconds
MIGRATE_PAGES_PER_PAGE_COST = 1.2e-7


class DataMover:
    """Executes block moves over the fluid network.

    One mover instance is shared; each concurrent ``move`` generator acts as
    one "mover thread" with its own per-thread bandwidth cap.
    """

    def __init__(self, env: Environment, topology: MemoryTopology, *,
                 per_thread_copy_bw: float = 12e9):
        self.env = env
        self.topology = topology
        #: cap on a single mover thread's copy rate (B/s)
        self.per_thread_copy_bw = per_thread_copy_bw
        self.moves_completed = 0
        self.bytes_moved = 0
        self.results: list[MoveResult] = []
        #: keep full per-move results only when tracing asks for them
        self.keep_results = False

    # -- memcpy-style move (the paper's mechanism) -----------------------------

    def move(self, block: DataBlock, dst: MemoryDevice,
             *, weight: float = 1.0) -> _t.Generator:
        """Move ``block`` to ``dst``; yields inside a simulated process.

        Raises :class:`CapacityError` immediately (before any simulated time
        passes) if ``dst`` cannot hold the block — callers are expected to
        check/track capacity, as the paper's IO thread does.
        """
        src = block.device
        if src is None or block.allocation is None or not block.allocation.live:
            raise BlockStateError(f"block {block.name!r} is not resident anywhere")
        if src is dst:
            raise BlockStateError(
                f"block {block.name!r} is already on {dst.name}")
        if block.moving:
            raise BlockStateError(f"block {block.name!r} is already moving")
        if not dst.can_allocate(block.nbytes):
            raise CapacityError(
                f"{dst.name} cannot hold block {block.name!r} "
                f"({block.nbytes}B > {dst.available}B free)",
                available=dst.available)

        started = self.env.now
        if _probe.on_move_start is not None:
            _probe.on_move_start(block, src, dst)
        block.begin_move()
        src_alloc = block.allocation

        # Step 1: create space in destination memory (numa_alloc_onnode).
        alloc_cost = dst.allocator.alloc_cost(block.nbytes)
        yield self.env.timeout(alloc_cost)
        try:
            dst_alloc = dst.allocate(block.nbytes)
        except CapacityError:
            # Fragmentation: total free space sufficed but no contiguous
            # range did.  Restore the block (it never left the source) and
            # let the scheduler treat this as "no space".
            block.settle(src, self.topology.state_for(src))
            if _probe.on_move_rollback is not None:
                _probe.on_move_rollback(block, src, dst)
            raise
        after_alloc = self.env.now

        # Step 2: memcpy — one flow across src.read + dst.write.
        if block.nbytes > 0:
            latency = src.latency + dst.latency
            if latency > 0:
                yield self.env.timeout(latency)
            flow = dst.network.start_flow(
                block.nbytes, [src.read_link, dst.write_link],
                weight=weight, max_rate=self.per_thread_copy_bw)
            src.bytes_read += block.nbytes
            dst.bytes_written += block.nbytes
            yield flow.done
        after_copy = self.env.now

        # Step 3: free the source buffer (numa_free).
        free_cost = src.allocator.free_cost(block.nbytes)
        if free_cost > 0:
            yield self.env.timeout(free_cost)
        src.free(src_alloc)

        block.allocation = dst_alloc
        block.settle(dst, self.topology.state_for(dst))
        block.bytes_moved += block.nbytes
        if _probe.on_move_end is not None:
            _probe.on_move_end(block, src, dst, block.nbytes, started)

        self.moves_completed += 1
        self.bytes_moved += block.nbytes
        result = MoveResult(
            block=block, src=src.name, dst=dst.name, nbytes=block.nbytes,
            started_at=started, finished_at=self.env.now,
            alloc_time=after_alloc - started,
            copy_time=after_copy - after_alloc,
            free_time=self.env.now - after_copy)
        if self.keep_results:
            self.results.append(result)
        return result

    # -- migrate_pages-style move (modelled alternative) -------------------------

    def move_migrate_pages(self, block: DataBlock, dst: MemoryDevice,
                           *, weight: float = 1.0) -> _t.Generator:
        """Kernel page-migration variant, for the §IV-C comparison.

        Pages move at the same fluid rate as memcpy but pay a per-page
        kernel bookkeeping cost, and sizes round up to whole pages — the
        padding/conversion the paper calls out as a reason to prefer memcpy.
        """
        src = block.device
        if src is None or block.allocation is None or not block.allocation.live:
            raise BlockStateError(f"block {block.name!r} is not resident anywhere")
        if src is dst:
            raise BlockStateError(f"block {block.name!r} is already on {dst.name}")
        if block.moving:
            raise BlockStateError(f"block {block.name!r} is already moving")
        pages = max(1, math.ceil(block.nbytes / PAGE_SIZE))
        padded = pages * PAGE_SIZE
        if not dst.can_allocate(padded):
            raise CapacityError(
                f"{dst.name} cannot hold {padded}B (page-padded)",
                available=dst.available)

        started = self.env.now
        if _probe.on_move_start is not None:
            _probe.on_move_start(block, src, dst)
        block.begin_move()
        src_alloc = block.allocation
        try:
            dst_alloc = dst.allocate(padded)
        except CapacityError:
            # Fragmentation: total free space sufficed but no contiguous
            # range did.  Restore the block (it never left the source) so
            # it is not stuck MOVING, matching `move`'s rollback.
            block.settle(src, self.topology.state_for(src))
            if _probe.on_move_rollback is not None:
                _probe.on_move_rollback(block, src, dst)
            raise

        # Kernel bookkeeping scales with page count, serial per mover.
        yield self.env.timeout(pages * MIGRATE_PAGES_PER_PAGE_COST)
        flow = dst.network.start_flow(padded, [src.read_link, dst.write_link],
                                      weight=weight,
                                      max_rate=self.per_thread_copy_bw)
        src.bytes_read += padded
        dst.bytes_written += padded
        yield flow.done
        src.free(src_alloc)
        block.allocation = dst_alloc
        block.settle(dst, self.topology.state_for(dst))
        block.bytes_moved += padded
        if _probe.on_move_end is not None:
            _probe.on_move_end(block, src, dst, padded, started)

        self.moves_completed += 1
        self.bytes_moved += padded
        result = MoveResult(
            block=block, src=src.name, dst=dst.name, nbytes=padded,
            started_at=started, finished_at=self.env.now,
            alloc_time=0.0, copy_time=self.env.now - started, free_time=0.0)
        if self.keep_results:
            self.results.append(result)
        return result
