"""A deliberately racy strategy — seeded-defect fixture for repro.race.

Every defect here is a known bad pattern the subsystem must catch:

* ``force_resident``            — REP200 (raw ``.state`` assignment)
* ``undead_move``               — REP201 + REP203 (settle-to-MOVING, and a
                                  ``return`` path that abandons a move)
* ``prefetch_ignoring_result``  — REP205 (discarded fetch outcome)
* ``_rogue_main``               — REP202 + REP204 statically (unguarded
                                  raw mover eviction outside the in-flight
                                  protocol), and **dynamically** the data
                                  race racesan must flag: the rogue evicts
                                  blocks without checking ``in_use``, so
                                  its DDR move is unordered with kernel
                                  accesses by running tasks → RACE301.

The dynamic bug is schedule-dependent in *when* it bites, but the
happens-before violation exists on every schedule the rogue fires in, so
the explorer can minimize any failing seeded run to a stable
``(seed, limit)`` replay token.
"""

from __future__ import annotations

import typing as _t

from repro.core.strategies.single_io import IO_LANE, SingleIOThreadStrategy
from repro.mem.block import BlockState, DataBlock


class RacyIOStrategy(SingleIOThreadStrategy):
    """single-io plus a rogue evictor that ignores refcounts."""

    name = "racy-io"

    #: sim-seconds between rogue eviction attempts (a 16 MiB fetch takes
    #: ~1.3 ms, so this lands between fetch and task completion)
    rogue_period = 2e-3
    #: how many times the rogue fires before giving up (bounded so the
    #: simulation still quiesces)
    rogue_rounds = 30

    def setup(self) -> None:
        super().setup()
        mgr = self._mgr()
        self.rogue_evictions = 0
        mgr.env.process(self._rogue_main(), name="rogue-evictor")

    # -- seeded static defects (never called at runtime) -----------------------

    def force_resident(self, block: DataBlock) -> None:
        block.state = BlockState.INHBM  # REP200: bypasses the state machine

    def undead_move(self, block: DataBlock) -> None:
        mgr = self._mgr()
        block.begin_move()
        if block.pinned:
            return  # REP203: abandons the move, block stuck MOVING
        block.settle(mgr.hbm, BlockState.MOVING)  # REP201

    def prefetch_ignoring_result(self, task: _t.Any) -> _t.Generator:
        yield from self.fetch_task_blocks(task, IO_LANE)  # REP205
        self.make_ready(self._require_pes()[0], task)

    # -- the live bug ----------------------------------------------------------

    def _rogue_main(self) -> _t.Generator:
        """Evict "idle-looking" blocks on a timer, without the refcount
        check ``evict_block`` performs — the use-after-evict race."""
        mgr = self._mgr()
        for _ in range(self.rogue_rounds):
            yield mgr.env.timeout(self.rogue_period)
            victim = next(
                (b for b in mgr.registry if b.in_hbm and not b.moving), None)
            if victim is None:
                continue
            # REP202 (no in_use/pinned guard) + REP204 (no begin_inflight)
            yield from mgr.mover.move(victim, mgr.ddr)
            self.rogue_evictions += 1
