"""Unit tests for the DataMover (numa_alloc_onnode + memcpy + numa_free)."""

import pytest

from repro.errors import BlockStateError, CapacityError
from repro.machine.knl import build_knl
from repro.mem.block import BlockState, DataBlock
from repro.mem.allocator import FreeListAllocator
from repro.sim.environment import Environment
from repro.units import GiB, MiB


@pytest.fixture
def node():
    # Small capacities keep the numbers easy to reason about.
    return build_knl(Environment(), mcdram_capacity=GiB, ddr_capacity=4 * GiB)


def place(node, name, nbytes, device):
    block = DataBlock(name, nbytes)
    node.registry.register(block)
    node.topology.place_block(block, device)
    return block


class TestMove:
    def test_move_updates_residency(self, node):
        block = place(node, "b", 64 * MiB, node.ddr)
        proc = node.env.process(node.mover.move(block, node.hbm))
        assert node.env.run(until=proc) is None
        assert block.state is BlockState.INHBM
        assert block.device is node.hbm
        assert node.ddr.used == 0
        assert node.hbm.used == 64 * MiB
        assert block.bytes_moved == 64 * MiB

    def test_move_time_has_three_parts(self, node):
        nbytes = 64 * MiB
        block = place(node, "b", nbytes, node.ddr)
        alloc = node.hbm.allocator.alloc_cost(nbytes)
        latency = node.ddr.latency + node.hbm.latency
        # a lone mover thread copies at its cap or the slower port's rate
        copy = nbytes / min(node.mover.per_thread_copy_bw,
                            node.ddr.read_bandwidth, node.hbm.write_bandwidth)
        free = node.ddr.allocator.free_cost(nbytes)
        assert alloc > 0 and copy > 0 and free > 0
        node.env.run(until=node.env.process(node.mover.move(block, node.hbm)))
        assert node.env.now == pytest.approx(alloc + latency + copy + free)

    def test_lone_copy_runs_at_thread_cap(self, node):
        nbytes = 50 * MiB
        block = place(node, "b", nbytes, node.ddr)
        node.env.run(until=node.env.process(node.mover.move(block, node.hbm)))
        copy_time = (node.env.now - node.hbm.allocator.alloc_cost(nbytes)
                     - node.ddr.latency - node.hbm.latency
                     - node.ddr.allocator.free_cost(nbytes))
        cap = node.mover.per_thread_copy_bw
        assert nbytes / copy_time == pytest.approx(cap, rel=1e-2)

    def test_hbm_to_ddr_slower_than_ddr_to_hbm(self, node):
        """Figure 7: memcpy cost slightly higher HBM->DDR (DDR write port
        is the weakest link).  Visible once many movers saturate ports."""
        env = node.env
        n = 64
        blocks_in = [place(node, f"in{i}", 8 * MiB, node.ddr)
                     for i in range(n)]
        start = env.now
        procs = [env.process(node.mover.move(b, node.hbm)) for b in blocks_in]
        env.run(until=env.all_of(procs))
        t_d2h = env.now - start
        start = env.now
        procs = [env.process(node.mover.move(b, node.ddr)) for b in blocks_in]
        env.run(until=env.all_of(procs))
        t_h2d = env.now - start
        assert t_h2d > t_d2h

    def test_move_to_full_device_raises_before_time_passes(self, node):
        filler = place(node, "filler", GiB, node.hbm)
        block = place(node, "b", 64 * MiB, node.ddr)
        with pytest.raises(CapacityError):
            # generator raises at first advance
            gen = node.mover.move(block, node.hbm)
            next(gen)
        assert block.state is BlockState.INDDR

    def test_move_to_same_device_rejected(self, node):
        block = place(node, "b", MiB, node.ddr)
        with pytest.raises(BlockStateError):
            next(node.mover.move(block, node.ddr))

    def test_unplaced_block_rejected(self, node):
        block = DataBlock("ghost", MiB)
        with pytest.raises(BlockStateError):
            next(node.mover.move(block, node.hbm))

    def test_concurrent_move_of_same_block_rejected(self, node):
        block = place(node, "b", 64 * MiB, node.ddr)
        node.env.process(node.mover.move(block, node.hbm))
        node.env.run(until=1e-5)  # let the first move start
        with pytest.raises(BlockStateError):
            next(node.mover.move(block, node.hbm))

    def test_counters_accumulate(self, node):
        b1 = place(node, "b1", MiB, node.ddr)
        b2 = place(node, "b2", MiB, node.ddr)
        env = node.env
        procs = [env.process(node.mover.move(b, node.hbm)) for b in (b1, b2)]
        env.run(until=env.all_of(procs))
        assert node.mover.moves_completed == 2
        assert node.mover.bytes_moved == 2 * MiB

    def test_fragmentation_failure_restores_block(self):
        """Free-list ablation: mid-move CapacityError must not corrupt."""
        env = Environment()
        node = build_knl(env, mcdram_capacity=3 * MiB, ddr_capacity=GiB,
                         allocator_cls=FreeListAllocator)
        a = place(node, "a", MiB, node.hbm)
        b = place(node, "b", MiB, node.hbm)
        c = place(node, "c", MiB, node.hbm)
        node.topology.release_block(a)
        node.topology.release_block(c)
        # 2 MiB free but fragmented; a 2 MiB fetch fails at allocate time
        big = place(node, "big", 2 * MiB - 4096, node.ddr)
        proc = env.process(node.mover.move(big, node.hbm))
        with pytest.raises(CapacityError):
            env.run(until=proc)
        assert big.state is BlockState.INDDR
        assert big.device is node.ddr


class TestMigratePages:
    def test_rounds_to_pages(self, node):
        block = place(node, "b", 5000, node.ddr)  # 2 pages
        proc = node.env.process(node.mover.move_migrate_pages(block, node.hbm))
        assert node.env.run(until=proc) is None
        assert block.bytes_moved == 8192
        assert node.mover.bytes_moved == 8192
        assert node.hbm.used == 8192

    def test_slower_than_memcpy_for_many_pages(self, node):
        """The paper cites [11]: memcpy is the more scalable mechanism."""
        env = node.env
        b1 = place(node, "m1", 64 * MiB, node.ddr)
        b2 = place(node, "m2", 64 * MiB, node.ddr)
        t0 = env.now
        env.run(until=env.process(node.mover.move(b1, node.hbm)))
        t_memcpy = env.now - t0
        t0 = env.now
        env.run(until=env.process(node.mover.move_migrate_pages(b2, node.hbm)))
        t_migrate = env.now - t0
        assert t_migrate > t_memcpy

    def test_concurrent_migrate_of_same_block_rejected(self, node):
        """Parity with `move`: a block mid-migration cannot migrate again."""
        block = place(node, "b", 64 * MiB, node.ddr)
        node.env.process(node.mover.move_migrate_pages(block, node.hbm))
        node.env.run(until=1e-5)  # let the first migration start
        with pytest.raises(BlockStateError):
            next(node.mover.move_migrate_pages(block, node.hbm))

    def test_fragmentation_failure_restores_block(self):
        """Regression: a fragmentation CapacityError after begin_move must
        roll the block back instead of leaving it stuck MOVING."""
        env = Environment()
        node = build_knl(env, mcdram_capacity=3 * MiB, ddr_capacity=GiB,
                         allocator_cls=FreeListAllocator)
        a = place(node, "a", MiB, node.hbm)
        b = place(node, "b", MiB, node.hbm)
        c = place(node, "c", MiB, node.hbm)
        node.topology.release_block(a)
        node.topology.release_block(c)
        # 2 MiB free but fragmented; the page-padded 2 MiB allocation fails
        big = place(node, "big", 2 * MiB - 4096, node.ddr)
        proc = env.process(node.mover.move_migrate_pages(big, node.hbm))
        with pytest.raises(CapacityError):
            env.run(until=proc)
        assert big.state is BlockState.INDDR
        assert big.device is node.ddr
        assert not big.moving
        # the block is healthy: once the fragmentation clears (freeing the
        # middle block coalesces the free list) the migration succeeds
        node.topology.release_block(b)
        proc = env.process(node.mover.move_migrate_pages(big, node.hbm))
        env.run(until=proc)
        assert big.state is BlockState.INHBM
