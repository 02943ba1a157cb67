"""HBM-only placement: Figure 2's in-HBM configuration.

Only valid when the whole working set fits in the 16 GB MCDRAM — the
regime the paper uses to establish the ~3x kernel-time gap that motivates
prefetching (Figure 2).
"""

from __future__ import annotations

import typing as _t

from repro.core.strategies.base import Strategy
from repro.errors import CapacityError, SchedulingError
from repro.mem.block import DataBlock
from repro.runtime.pe import PE
from repro.units import format_size

__all__ = ["HBMOnlyStrategy"]


class HBMOnlyStrategy(Strategy):
    """Everything in HBM; raises if the working set does not fit."""

    name = "hbm-only"
    intercepts = False

    def place_initial(self, blocks: _t.Iterable[DataBlock]) -> None:
        mgr = self._mgr()
        block_list = list(blocks)
        total = sum(b.nbytes for b in block_list)
        if total > mgr.hbm.available:
            raise CapacityError(
                f"hbm-only placement needs {format_size(total)} but only "
                f"{format_size(mgr.hbm.available)} of HBM is free; this "
                "strategy is for fits-in-HBM working sets (paper Fig. 2)",
                available=mgr.hbm.available, device=mgr.hbm.name)
        for block in block_list:
            mgr.topology.place_block(block, mgr.hbm)

    def submit(self, pe: PE, task) -> _t.Generator:  # pragma: no cover
        raise SchedulingError("HBMOnlyStrategy never intercepts messages")
        yield

    def task_finished(self, pe: PE, task) -> _t.Generator:  # pragma: no cover
        raise SchedulingError("HBMOnlyStrategy never intercepts messages")
        yield
