"""The paper's Baseline / "Naive" strategy (§IV-B).

"In our baseline mechanism, we do not perform any prefetch or eviction of
data...  We use ``numa_alloc_onnode``... to place data blocks in HBM and
any remaining data blocks that do not fit within the 16GB HBM are placed in
DDR4."  Kernels then stream from wherever their blocks landed, so the
overflow fraction runs at DDR4 bandwidth forever.
"""

from __future__ import annotations

import typing as _t

from repro.core.strategies.base import Strategy
from repro.errors import SchedulingError
from repro.mem.block import DataBlock
from repro.runtime.pe import PE

__all__ = ["NaiveStrategy"]


class NaiveStrategy(Strategy):
    """HBM-until-full static placement; no interception, no movement."""

    name = "naive"
    intercepts = False

    def place_initial(self, blocks: _t.Iterable[DataBlock]) -> None:
        mgr = self._mgr()
        for block in blocks:
            if mgr.hbm.can_allocate(block.nbytes):
                mgr.topology.place_block(block, mgr.hbm)
            else:
                mgr.topology.place_block(block, mgr.ddr)

    def submit(self, pe: PE, task) -> _t.Generator:  # pragma: no cover
        raise SchedulingError("NaiveStrategy never intercepts messages")
        yield

    def task_finished(self, pe: PE, task) -> _t.Generator:  # pragma: no cover
        raise SchedulingError("NaiveStrategy never intercepts messages")
        yield
