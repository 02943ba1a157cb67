"""Chare-to-PE placement.

"Objects do not migrate at anytime, they migrate only when load balancing
explicitly moves them to a different PE." (§III-A)  The evaluation keeps
placement static, so placement is the initial map alone: no chare moves
after it is created.
"""

from __future__ import annotations

import typing as _t

from repro.errors import RuntimeModelError

__all__ = ["round_robin_map", "block_cyclic_map"]

Index = tuple[int, ...]


def round_robin_map(indices: _t.Sequence[Index], n_pes: int) -> dict[Index, int]:
    """Cycle chares over PEs in sorted index order.

    This is the default for the paper's workloads: consecutive chares land
    on consecutive PEs, so one "wave" of chares touches every PE — the
    over-decomposition pattern §III-A relies on.
    """
    if n_pes <= 0:
        raise RuntimeModelError("need at least one PE")
    return {idx: i % n_pes for i, idx in enumerate(sorted(indices))}


def block_cyclic_map(indices: _t.Sequence[Index], n_pes: int) -> dict[Index, int]:
    """2-D block-cyclic distribution (ScaLAPACK-style) for 2-D chare arrays.

    The PEs form a near-square ``pr x pc`` grid; chare *(i, j)* lands on PE
    ``(i % pr) * pc + (j % pc)``.  At any instant the ~``n_pes`` concurrent
    chares tile a ``pr x pc`` patch of the chare grid, so each row panel is
    shared by ``pc`` running tasks and each column panel by ``pr`` — the
    concurrency pattern that lets reference counting keep the read-only
    panels of MatMul resident (§V-B).  Non-2-D indices fall back to
    round-robin.
    """
    if n_pes <= 0:
        raise RuntimeModelError("need at least one PE")
    if any(len(idx) != 2 for idx in indices):
        return round_robin_map(indices, n_pes)
    pr = int(n_pes ** 0.5)
    while n_pes % pr:
        pr -= 1
    pc = n_pes // pr
    return {idx: (idx[0] % pr) * pc + (idx[1] % pc) for idx in indices}
