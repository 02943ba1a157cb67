"""Unit tests for HBMTracker and OOCTask."""

from itertools import count

import pytest

from repro.core.hbm import HBMTracker
from repro.core.ooc_task import OOCTask, TaskState
from repro.errors import SchedulingError
from repro.machine.knl import build_knl
from repro.mem.block import AccessIntent, DataBlock
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.message import Message
from repro.sim.environment import Environment
from repro.units import GiB, MiB

#: numbers for blocks made outside a block registry
BIDS = count()


@pytest.fixture
def node():
    return build_knl(Environment(), cores=2, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)


class TestHBMTracker:
    def test_can_fit_respects_reservations(self, node):
        tracker = HBMTracker(node.hbm)
        assert tracker.can_fit(GiB)
        tracker.reserve(900 * MiB)
        assert not tracker.can_fit(200 * MiB)
        assert tracker.rejected_fits == 1

    def test_can_fit_respects_allocations(self, node):
        tracker = HBMTracker(node.hbm)
        node.hbm.allocate(900 * MiB)
        assert not tracker.can_fit(200 * MiB)

    def test_reserve_over_capacity_raises(self, node):
        tracker = HBMTracker(node.hbm)
        with pytest.raises(SchedulingError):
            tracker.reserve(2 * GiB)

    def test_unreserve_restores(self, node):
        tracker = HBMTracker(node.hbm)
        tracker.reserve(512 * MiB)
        tracker.unreserve(512 * MiB)
        assert tracker.reserved == 0
        assert tracker.can_fit(GiB)

    def test_unreserve_underflow_raises(self, node):
        tracker = HBMTracker(node.hbm)
        with pytest.raises(SchedulingError):
            tracker.unreserve(1)

    def test_peak_reserved_tracked(self, node):
        tracker = HBMTracker(node.hbm)
        tracker.reserve(100)
        tracker.reserve(200)
        tracker.unreserve(300)
        assert tracker.peak_reserved == 300


class _Dummy(Chare):
    @entry(prefetch=True, readwrite=["a"])
    def work(self):
        pass


def make_task(node, blocks_with_intents, pe_id=0):
    chare = _Dummy()
    spec = _Dummy._entry_specs["work"]
    msg = Message(0, chare, spec)
    return OOCTask(0, msg, pe_id, blocks_with_intents)


class TestOOCTask:
    def test_dedupes_blocks(self, node):
        block = DataBlock("shared", MiB, bid=next(BIDS))
        task = make_task(node, [(block, AccessIntent.READONLY),
                                (block, AccessIntent.READONLY)])
        assert len(task.deps) == 1

    def test_conflicting_intents_merge_to_readwrite(self, node):
        block = DataBlock("shared", MiB, bid=next(BIDS))
        task = make_task(node, [(block, AccessIntent.READONLY),
                                (block, AccessIntent.WRITEONLY)])
        assert task.deps[0][1] is AccessIntent.READWRITE

    def test_missing_blocks_and_residency(self, node):
        a = DataBlock("a", MiB, bid=next(BIDS))
        b = DataBlock("b", MiB, bid=next(BIDS))
        node.topology.place_block(a, node.hbm)
        node.topology.place_block(b, node.ddr)
        task = make_task(node, [(a, AccessIntent.READONLY),
                                (b, AccessIntent.READONLY)])
        assert task.missing == b.nbytes  # only b must still come in
        assert not task.all_resident()
        assert task.total_dep_bytes == 2 * MiB

    def test_retain_release_exactly_once(self, node):
        block = DataBlock("a", MiB, bid=next(BIDS))
        task = make_task(node, [(block, AccessIntent.READWRITE)])
        task.retain_all(1.0)
        assert block.refcount == 1
        with pytest.raises(SchedulingError):
            task.retain_all(2.0)
        task.release_all()
        assert block.refcount == 0
        with pytest.raises(SchedulingError):
            task.release_all()

    def test_initial_state(self, node):
        block = DataBlock("a", 1, bid=next(BIDS))
        task = make_task(node, [(block, AccessIntent.READONLY)])
        assert task.state is TaskState.WAITING
