"""Unit tests for DataBlock (the CkIOHandle analog)."""

from itertools import count
from types import SimpleNamespace

import pytest

from repro.core.ooc_task import OOCTask
from repro.errors import BlockStateError, CapacityError
from repro.machine.knl import build_knl
from repro.mem.allocator import FreeListAllocator
from repro.mem.block import AccessIntent, BlockState, DataBlock
from repro.runtime.chare import Chare
from repro.runtime.entry import entry
from repro.runtime.message import Message
from repro.sim.environment import Environment
from repro.units import GiB, MiB

#: numbers for blocks and tasks made outside a run
BIDS = count()
TIDS = count()


def _queued():
    """Stand-in for a queued task where only the demand serial matters."""
    return SimpleNamespace(missing=0)


class TestAccessIntent:
    def test_reads_writes_matrix(self):
        assert AccessIntent.READONLY.reads and not AccessIntent.READONLY.writes
        assert AccessIntent.READWRITE.reads and AccessIntent.READWRITE.writes
        assert not AccessIntent.WRITEONLY.reads and AccessIntent.WRITEONLY.writes


class TestRefcount:
    def test_starts_at_zero(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        assert block.refcount == 0
        assert not block.in_use

    def test_retain_release_cycle(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        assert block.retain() == 1
        assert block.retain() == 2
        assert block.in_use
        assert block.release() == 1
        assert block.release() == 0
        assert not block.in_use

    def test_release_underflow_raises(self):
        with pytest.raises(BlockStateError):
            DataBlock("b", 100, bid=next(BIDS)).release()

    def test_retain_records_schedule_time(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        block.retain(now=12.5)
        assert block.last_scheduled_at == 12.5


class TestDemand:
    def test_demand_counts_pending_tasks(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        block.add_demand(5, _queued())
        block.add_demand(9, _queued())
        assert block.demand == 2

    def test_next_use_is_min_pending_serial(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        block.add_demand(9, _queued())
        block.add_demand(5, _queued())
        block.add_demand(7, _queued())
        assert block.next_use == 5
        block.drop_demand(5)
        assert block.next_use == 7

    def test_next_use_sentinel_when_idle(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        assert block.next_use == 1 << 62

    def test_drop_unknown_serial_raises(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        with pytest.raises(BlockStateError):
            block.drop_demand(3)

    def test_next_use_cache_updates_on_smaller_add(self):
        block = DataBlock("b", 100, bid=next(BIDS))
        block.add_demand(10, _queued())
        assert block.next_use == 10
        block.add_demand(2, _queued())
        assert block.next_use == 2


class TestStateMachine:
    def test_default_state_is_inddr(self):
        assert DataBlock("b", 8, bid=next(BIDS)).state is BlockState.INDDR

    def test_begin_move_twice_raises(self):
        block = DataBlock("b", 8, bid=next(BIDS))
        block.begin_move()
        with pytest.raises(BlockStateError):
            block.begin_move()

    def test_settle_needs_concrete_state(self):
        block = DataBlock("b", 8, bid=next(BIDS))
        block.begin_move()
        with pytest.raises(BlockStateError):
            block.settle(None, BlockState.MOVING)

    def test_negative_size_rejected(self):
        with pytest.raises(BlockStateError):
            DataBlock("b", -1, bid=next(BIDS))

    def test_state_predicates(self):
        block = DataBlock("b", 8, bid=next(BIDS))
        assert block.state is BlockState.INDDR
        assert not block.in_hbm and not block.moving
        block.begin_move()
        assert block.moving

    def test_unique_ids(self):
        # numbered per run by the registry that declares them
        first, second = (build_knl(Environment(), cores=1).registry
                         for _ in range(2))
        a, b = first.declare("a", 1), first.declare("b", 1)
        assert a.bid != b.bid
        assert second.declare("a", 1).bid == a.bid


class _C(Chare):
    @entry(prefetch=True, readonly=["a"])
    def work(self):
        pass


def queued_task(*blocks):
    """An OOCTask over ``blocks``, registered as demand like intercept()."""
    msg = Message(0, _C(), _C._entry_specs["work"])
    task = OOCTask(next(TIDS), msg, 0,
                   [(b, AccessIntent.READONLY) for b in blocks])
    for block in task.blocks:
        block.add_demand(task.tid, task)
    return task


@pytest.fixture
def node():
    return build_knl(Environment(), cores=2, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)


def placed(node, name, nbytes, device):
    block = node.registry.declare(name, nbytes)
    node.topology.place_block(block, device)
    return block


class TestMissingLedger:
    """begin_move()/settle() keep every pending task's ``missing`` current."""

    def test_initial_count_sums_ddr_blocks(self, node):
        ddr = placed(node, "ddr", 3 * MiB, node.ddr)
        hbm = placed(node, "hbm", 5 * MiB, node.hbm)
        assert queued_task(ddr, hbm).missing == 3 * MiB

    def test_initial_placement_in_hbm_clears_count(self, node):
        block = DataBlock("b", 2 * MiB, bid=next(BIDS))  # INDDR until placed
        task = queued_task(block)
        assert task.missing == 2 * MiB
        node.topology.place_block(block, node.hbm)
        assert task.missing == 0

    def test_begin_move_from_ddr_decrements_every_pending_task(self, node):
        shared = placed(node, "shared", 4 * MiB, node.ddr)
        other = placed(node, "other", MiB, node.ddr)
        t1, t2 = queued_task(shared, other), queued_task(shared)
        shared.begin_move()
        assert (t1.missing, t2.missing) == (MiB, 0)

    def test_settle_to_ddr_increments_every_pending_task(self, node):
        block = placed(node, "b", 4 * MiB, node.hbm)
        t1, t2 = queued_task(block), queued_task(block)
        block.begin_move()
        assert (t1.missing, t2.missing) == (0, 0)
        block.settle(node.ddr, BlockState.INDDR)
        assert (t1.missing, t2.missing) == (4 * MiB, 4 * MiB)

    def test_hbm_to_hbm_move_leaves_count_alone(self, node):
        resident = placed(node, "r", 4 * MiB, node.hbm)
        cold = placed(node, "c", MiB, node.ddr)
        task = queued_task(resident, cold)
        resident.begin_move()
        assert task.missing == MiB
        resident.settle(node.hbm, BlockState.INHBM)
        assert task.missing == MiB

    def test_full_fetch_and_eviction_round_trip(self, node):
        block = placed(node, "b", 8 * MiB, node.ddr)
        task = queued_task(block)
        node.env.run(until=node.env.process(node.mover.move(block, node.hbm)))
        assert task.missing == 0
        node.env.run(until=node.env.process(node.mover.move(block, node.ddr)))
        assert task.missing == 8 * MiB

    def test_fragmentation_rollback_restores_count(self):
        env = Environment()
        node = build_knl(env, mcdram_capacity=3 * MiB, ddr_capacity=GiB,
                         allocator_cls=FreeListAllocator)
        a = placed(node, "a", MiB, node.hbm)
        placed(node, "b", MiB, node.hbm)
        c = placed(node, "c", MiB, node.hbm)
        node.topology.release_block(a)
        node.topology.release_block(c)
        # 2 MiB free but fragmented: the fetch rolls back at allocate time
        big = placed(node, "big", 2 * MiB - 4096, node.ddr)
        task = queued_task(big)
        proc = env.process(node.mover.move(big, node.hbm))
        env.run(until=1e-9)
        assert big.moving and task.missing == 0  # in flight: not missing
        with pytest.raises(CapacityError):
            env.run(until=proc)
        assert task.missing == big.nbytes

    def test_dropped_demand_stops_updates(self, node):
        block = placed(node, "b", MiB, node.ddr)
        task = queued_task(block)
        block.drop_demand(task.tid)
        block.begin_move()
        assert task.missing == MiB  # stale by design once unregistered

    def test_blocks_tuple_is_built_once(self, node):
        task = queued_task(placed(node, "b", MiB, node.ddr))
        assert task.blocks is task.blocks
        assert isinstance(task.blocks, tuple)


class TestIdleIndex:
    """retain/release/begin_move/settle keep ``hbm.idle_blocks`` keyed by
    the bids of the blocks settled in HBM with refcount 0."""

    def test_placement_in_hbm_indexes_an_idle_block(self, node):
        block = placed(node, "b", MiB, node.hbm)
        assert node.hbm.idle_blocks.keys() == {block.bid}
        assert node.ddr.idle_blocks is None

    def test_retain_from_zero_removes(self, node):
        block = placed(node, "b", MiB, node.hbm)
        block.retain()
        assert block.bid not in node.hbm.idle_blocks
        block.retain()  # 1 -> 2: nothing left to remove
        assert node.hbm.idle_blocks == {}

    def test_release_to_zero_adds(self, node):
        block = placed(node, "b", MiB, node.hbm)
        block.retain()
        block.retain()
        block.release()  # 2 -> 1: still in use
        assert node.hbm.idle_blocks == {}
        block.release()
        assert node.hbm.idle_blocks.keys() == {block.bid}

    def test_refcount_on_ddr_block_never_indexes(self, node):
        block = placed(node, "b", MiB, node.ddr)
        block.retain()
        block.release()
        assert node.hbm.idle_blocks == {}

    def test_begin_move_removes(self, node):
        block = placed(node, "b", MiB, node.hbm)
        block.begin_move()
        assert node.hbm.idle_blocks == {}
        block.retain()  # an in-flight block's refcount leaves the index be
        block.release()
        assert node.hbm.idle_blocks == {}

    def test_settle_to_hbm_adds_only_at_refcount_zero(self, node):
        idle = placed(node, "idle", MiB, node.ddr)
        busy = placed(node, "busy", MiB, node.ddr)
        busy.retain()
        for block in (idle, busy):
            block.begin_move()
            block.settle(node.hbm, BlockState.INHBM)
        assert node.hbm.idle_blocks.keys() == {idle.bid}
        busy.release()
        assert node.hbm.idle_blocks.keys() == {idle.bid, busy.bid}

    def test_settle_to_ddr_leaves_it_out(self, node):
        block = placed(node, "b", MiB, node.hbm)
        block.begin_move()
        block.settle(node.ddr, BlockState.INDDR)
        assert node.hbm.idle_blocks == {}
        block.retain()
        block.release()
        assert node.hbm.idle_blocks == {}

    def test_rollback_settle_to_source_restores(self):
        env = Environment()
        node = build_knl(env, mcdram_capacity=GiB, ddr_capacity=3 * MiB,
                         allocator_cls=FreeListAllocator)
        a = placed(node, "a", MiB, node.ddr)
        placed(node, "b", MiB, node.ddr)
        c = placed(node, "c", MiB, node.ddr)
        node.topology.release_block(a)
        node.topology.release_block(c)
        # 2 MiB free in DDR4 but fragmented: the eviction rolls back
        big = placed(node, "big", 2 * MiB - 4096, node.hbm)
        proc = env.process(node.mover.move(big, node.ddr))
        env.run(until=1e-9)
        assert big.moving and node.hbm.idle_blocks == {}
        with pytest.raises(CapacityError):
            env.run(until=proc)
        assert big.in_hbm and node.hbm.idle_blocks.keys() == {big.bid}

    def test_replacement_without_move_follows_the_device(self, node):
        block = placed(node, "b", MiB, node.hbm)
        node.topology.release_block(block)
        node.topology.place_block(block, node.ddr)
        assert node.hbm.idle_blocks == {}
