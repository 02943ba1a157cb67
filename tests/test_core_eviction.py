"""Unit tests for eviction policies."""

import random
from itertools import count
from types import SimpleNamespace

import pytest

from repro.core import eviction
from repro.core.eviction import LRUEviction, OwnBlocksEviction
from repro.core.hbm import HBMTracker
from repro.core.ooc_task import OOCTask
from repro.machine.knl import build_knl
from repro.mem.block import AccessIntent
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.message import Message
from repro.sim.environment import Environment
from repro.units import GiB, MiB
from tests.mem_oracle import check_victim_heap, sorted_victims

#: numbers for tasks made outside a run
TIDS = count()


class _C(Chare):
    @entry(prefetch=True, readwrite=["a"])
    def work(self):
        pass


@pytest.fixture
def node():
    return build_knl(Environment(), cores=2, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)


def resident(node, name, nbytes=MiB, last_used=None):
    block = node.registry.declare(name, nbytes)
    node.topology.place_block(block, node.hbm)
    if last_used is not None:
        block.retain(last_used)
        block.release()
    return block


def demand(block, serial):
    """Register a queued task with serial ``serial`` as needing ``block``."""
    block.add_demand(serial, SimpleNamespace(missing=0))


def task_over(blocks):
    msg = Message(0, _C(), _C._entry_specs["work"])
    return OOCTask(next(TIDS), msg, 0,
                   [(b, AccessIntent.READWRITE) for b in blocks])


class TestOwnBlocks:
    def test_evicts_own_idle_blocks_under_pressure(self, node):
        policy = OwnBlocksEviction()
        a, b = resident(node, "a"), resident(node, "b")
        task = task_over([a, b])
        victims = policy.post_task_victims(task)
        assert set(victims) == {a, b}

    def test_keeps_in_use_blocks(self, node):
        policy = OwnBlocksEviction()
        a, b = resident(node, "a"), resident(node, "b")
        b.retain()  # another task is running with b
        victims = policy.post_task_victims(task_over([a, b]))
        assert victims == [a]

    def test_keeps_demanded_blocks(self, node):
        """Blocks a queued task will need are not eagerly evicted."""
        policy = OwnBlocksEviction()
        a, b = resident(node, "a"), resident(node, "b")
        demand(b, 99)
        victims = policy.post_task_victims(task_over([a, b]))
        assert victims == [a]

    def test_pressure_threshold_gates_eagerness(self, node, monkeypatch):
        monkeypatch.setattr(eviction, "PRESSURE_THRESHOLD", 0.9)
        policy = OwnBlocksEviction()
        tracker = HBMTracker(node.hbm)
        a = resident(node, "a")
        # utilisation ~0: no eager eviction
        assert policy.post_task_victims(task_over([a]), tracker) == []
        node.hbm.allocate(950 * MiB)  # push utilisation above 90%
        assert policy.post_task_victims(task_over([a]), tracker) == [a]

    def test_make_space_falls_back_to_lru(self, node):
        policy = OwnBlocksEviction()
        old = resident(node, "old", 10 * MiB, last_used=1.0)
        new = resident(node, "new", 10 * MiB, last_used=9.0)
        victims = policy.make_space_victims(node.registry, 5 * MiB)
        assert victims == [old]

    def test_pinned_never_victim(self, node):
        policy = OwnBlocksEviction()
        a = resident(node, "a")
        a.pinned = True
        assert policy.post_task_victims(task_over([a])) == []
        assert policy.make_space_victims(node.registry, MiB) == []


class TestLRU:
    def test_no_post_task_eviction(self, node):
        policy = LRUEviction()
        a = resident(node, "a")
        assert policy.post_task_victims(task_over([a])) == []

    def test_lru_order_among_idle(self, node):
        policy = LRUEviction()
        mid = resident(node, "mid", 4 * MiB, last_used=5.0)
        old = resident(node, "old", 4 * MiB, last_used=1.0)
        new = resident(node, "new", 4 * MiB, last_used=9.0)
        victims = policy.make_space_victims(node.registry, 6 * MiB)
        assert victims == [old, mid]

    def test_never_used_counts_as_oldest(self, node):
        policy = LRUEviction()
        never = resident(node, "never", 4 * MiB)
        used = resident(node, "used", 4 * MiB, last_used=3.0)
        victims = policy.make_space_victims(node.registry, MiB)
        assert victims == [never]

    def test_demanded_blocks_evicted_last_by_belady(self, node):
        policy = LRUEviction()
        soon = resident(node, "soon", 4 * MiB)
        demand(soon, 10)          # next use: task #10
        far = resident(node, "far", 4 * MiB)
        demand(far, 500)          # next use: task #500
        idle = resident(node, "idle", 4 * MiB)
        victims = policy.make_space_victims(node.registry, 6 * MiB)
        assert victims == [idle, far]  # idle first, then farthest next use

    def test_include_demanded_false_excludes(self, node):
        policy = LRUEviction()
        hot = resident(node, "hot", 4 * MiB)
        demand(hot, 1)
        victims = policy.make_space_victims(node.registry, MiB,
                                            include_demanded=False)
        assert victims == []


class TestVictimHeap:
    """The idle index's lazy heap yields the old full sort's prefix."""

    def victims(self, node, needed, include_demanded=True):
        got = LRUEviction().make_space_victims(node.registry, needed,
                                               include_demanded)
        assert got == sorted_victims(node.registry, needed, include_demanded)
        check_victim_heap(node.registry, node.hbm.idle_blocks)
        return got

    def test_never_scheduled_keys_before_time_zero(self, node):
        zero = resident(node, "zero", MiB, last_used=0.0)
        never = resident(node, "never", MiB)
        assert node.hbm.idle_blocks[never.bid] == (0, -1.0, never.bid)
        assert self.victims(node, 2 * MiB) == [never, zero]

    def test_equal_timestamps_break_ties_by_bid(self, node):
        low = resident(node, "low", MiB)
        high = resident(node, "high", MiB)
        for block in (low, high):
            block.retain(4.0)
        high.release()  # the higher bid goes idle first
        low.release()
        assert self.victims(node, MiB) == [low]
        assert self.victims(node, 2 * MiB) == [low, high]

    def test_demand_added_then_dropped_while_idle(self, node):
        block = resident(node, "b", MiB, last_used=7.0)
        other = resident(node, "other", MiB, last_used=3.0)
        demand(block, 5)
        assert node.hbm.idle_blocks[block.bid] == (1, -5, block.bid)
        assert self.victims(node, 2 * MiB) == [other, block]
        block.drop_demand(5)
        assert node.hbm.idle_blocks[block.bid] == (0, 7.0, block.bid)
        # the scan dropped the stale entries it popped; the re-key left
        # the demanded entry stale
        assert check_victim_heap(node.registry, node.hbm.idle_blocks) == 1
        assert self.victims(node, MiB) == [other]
        assert self.victims(node, 2 * MiB, include_demanded=False) \
            == [other, block]

    def test_dropping_the_earliest_demand_rekeys(self, node):
        near = resident(node, "near", MiB)
        demand(near, 2)
        demand(near, 40)
        far = resident(node, "far", MiB)
        demand(far, 30)
        assert self.victims(node, MiB) == [far]
        near.drop_demand(2)  # next use moves out to task #40
        assert self.victims(node, MiB) == [near]

    def test_pinned_block_is_skipped_but_stays_indexed(self, node):
        pinned = resident(node, "pinned", MiB)
        free = resident(node, "free", MiB, last_used=1.0)
        pinned.pinned = True
        assert self.victims(node, 2 * MiB) == [free]
        assert pinned.bid in node.hbm.idle_blocks
        pinned.pinned = False
        assert self.victims(node, 2 * MiB) == [pinned, free]

    def test_needed_bytes_zero_one_block_and_beyond_idle(self, node):
        a = resident(node, "a", 2 * MiB, last_used=1.0)
        b = resident(node, "b", 2 * MiB, last_used=2.0)
        hot = resident(node, "hot", 2 * MiB)
        demand(hot, 9)
        busy = resident(node, "busy", 2 * MiB)
        busy.retain()
        assert self.victims(node, 0) == []
        assert self.victims(node, 1) == [a]
        assert self.victims(node, 2 * MiB) == [a]
        assert self.victims(node, GiB) == [a, b, hot]
        assert self.victims(node, GiB, include_demanded=False) == [a, b]
        assert self.victims(node, 0, include_demanded=False) == []

    def test_selection_keeps_every_entry(self, node):
        blocks = [resident(node, f"b{i}", MiB, last_used=float(i))
                  for i in range(5)]
        first = self.victims(node, 3 * MiB)
        assert first == blocks[:3]
        assert len(node.hbm.idle_blocks.heap) == 5
        assert self.victims(node, 3 * MiB) == first

    def test_stale_entries_are_compacted(self, node):
        block = resident(node, "b", MiB)
        for serial in range(1000):
            demand(block, serial)
            block.drop_demand(serial)
            check_victim_heap(node.registry, node.hbm.idle_blocks)
        assert len(node.hbm.idle_blocks.heap) < 100

    @pytest.mark.parametrize("seed", range(4))
    def test_random_transitions_match_the_sort(self, node, seed):
        rng = random.Random(seed)
        blocks = [resident(node, f"b{i}", rng.choice((1, 2, 3)) * MiB)
                  for i in range(12)]
        pending = {block.bid: [] for block in blocks}
        for serial in range(600):
            block = rng.choice(blocks)
            op = rng.randrange(5)
            if op == 0:
                block.retain(float(rng.randrange(8)))
            elif op == 1 and block.refcount:
                block.release()
            elif op == 2:
                demand(block, serial)
                pending[block.bid].append(serial)
            elif op == 3 and pending[block.bid]:
                block.drop_demand(pending[block.bid].pop(
                    rng.randrange(len(pending[block.bid]))))
            elif op == 4:
                block.pinned = not block.pinned
            self.victims(node, rng.randrange(8) * MiB, rng.random() < 0.5)
