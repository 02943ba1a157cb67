"""Unit tests for eviction policies."""

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
