"""Eviction policies, gated on reference counts.

The paper's rule (§IV-B): "When a task finishes execution, it evicts its
data dependences to DDR4, if they are not currently in use by another task,
by checking the data blocks' reference counts."

:class:`OwnBlocksEviction` is that rule.  :class:`LRUEviction` is an
ablation that instead frees least-recently-used refcount-zero blocks when
space is actually needed (keeping hot blocks resident — beneficial under
reuse, as MatMul's read-only panels show).
"""

from __future__ import annotations

import typing as _t
from heapq import heappop, heappush

from repro.mem.block import BlockState, DataBlock
from repro.mem.registry import BlockRegistry

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.hbm import HBMTracker
    from repro.core.ooc_task import OOCTask

__all__ = ["EvictionPolicy", "OwnBlocksEviction", "LRUEviction"]

#: :class:`OwnBlocksEviction`'s eager post-task eviction only engages above
#: this HBM utilisation; below it, idle blocks stay resident for reuse and
#: space is made on demand instead.  0.0 reproduces the paper's
#: always-eager text literally (at the cost of evicting reusable blocks
#: into a 95% empty HBM, which is what kills read-only reuse).
PRESSURE_THRESHOLD = 0.92


def _evictable(block: DataBlock) -> bool:
    return (block.state is BlockState.INHBM and not block.in_use
            and not block.pinned)


class EvictionPolicy:
    """Strategy object deciding which HBM-resident blocks to push out."""

    name = "abstract"

    def post_task_victims(self, task: "OOCTask",
                          tracker: "HBMTracker | None" = None) -> list[DataBlock]:
        """Blocks to evict right after ``task`` finished."""
        raise NotImplementedError

    def make_space_victims(self, registry: BlockRegistry, needed_bytes: int,
                           include_demanded: bool = True) -> list[DataBlock]:
        """Blocks to evict so that ``needed_bytes`` can be fetched."""
        raise NotImplementedError


def _lru_victims(registry: BlockRegistry, needed_bytes: int,
                 include_demanded: bool = True) -> list[DataBlock]:
    """LRU victims, demand-aware: blocks that queued tasks still reference
    (``demand > 0``) are only chosen once every unreferenced candidate is
    exhausted — evicting a block that a waiting task is about to fetch
    back is pure thrash.  ``include_demanded=False`` excludes them
    entirely (used by the proactive watermark evictor, which must never
    churn hot data).

    Idle (demand-0) blocks go first, oldest-use first (LRU).  Among
    still-demanded blocks the FIFO wait queues make next use knowable:
    evict the block whose earliest pending task is *farthest away*
    (Belady's rule), not the LRU one — for cyclic reuse patterns LRU
    would evict exactly the block needed soonest.  The idle index's heap
    holds exactly that order (:class:`~repro.mem.block.IdleIndex`), so
    this pops the prefix it needs instead of sorting every candidate:
    stale entries are dropped, and the live ones popped (victims and
    skipped pinned or unregistered blocks alike) go back on the heap.
    """
    victims: list[DataBlock] = []
    index = registry.idle_index
    if index is None:
        return victims
    heap = index.heap
    current = index.get
    block_of = registry.get
    popped = []
    freed = 0
    while freed < needed_bytes and heap:
        entry = heappop(heap)
        bid = entry[2]
        if current(bid) is not entry:
            continue  # stale: the block left the index or was re-keyed
        popped.append(entry)
        if entry[0] and not include_demanded:
            break  # the idle blocks are exhausted; the rest are demanded
        block = block_of(bid)
        if block is not None and not block.pinned:
            victims.append(block)
            freed += block.nbytes
    for entry in popped:
        heappush(heap, entry)
    return victims


class OwnBlocksEviction(EvictionPolicy):
    """The paper's policy: a finishing task evicts its own idle blocks.

    Algorithm 1 also states the general rule "Data blocks not in use are
    evicted to DDR4": when a fetch cannot proceed because HBM is clogged
    with idle blocks whose dependent tasks all finished long ago (shared
    read-only blocks are prone to this), we fall back to demand-evicting
    them in LRU order.  Without this fallback the pure post-task policy
    deadlocks once every runnable task's working set is blocked by stale
    resident data.
    """

    name = "own-blocks"

    def post_task_victims(self, task: "OOCTask",
                          tracker: "HBMTracker | None" = None) -> list[DataBlock]:
        if tracker is not None:
            utilisation = ((tracker.in_use + tracker.reserved)
                           / max(tracker.budget, 1))
            if utilisation < PRESSURE_THRESHOLD:
                return []
        # Keep blocks some queued task still needs: the runtime can see
        # every wait queue, so evicting them is avoidable thrash.
        return [b for b in task.blocks if _evictable(b) and b.demand == 0]

    def make_space_victims(self, registry: BlockRegistry, needed_bytes: int,
                           include_demanded: bool = True) -> list[DataBlock]:
        return _lru_victims(registry, needed_bytes, include_demanded)


class LRUEviction(EvictionPolicy):
    """Ablation: keep everything resident; evict LRU blocks on demand."""

    name = "lru"

    def post_task_victims(self, task: "OOCTask",
                          tracker: "HBMTracker | None" = None) -> list[DataBlock]:
        return []

    def make_space_victims(self, registry: BlockRegistry, needed_bytes: int,
                           include_demanded: bool = True) -> list[DataBlock]:
        return _lru_victims(registry, needed_bytes, include_demanded)
