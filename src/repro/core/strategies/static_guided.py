"""Compiler-guided static placement (bwlint guidance as the 7th policy).

Where :class:`~repro.core.strategies.naive.NaiveStrategy` fills HBM in
block-arrival order, this strategy is driven *purely* by a
:class:`~repro.lint.guidance.GuidanceFile` that
:func:`repro.lint.guidance.build_guidance` inferred from application
source: blocks are ranked by their site's statically inferred traffic
density (bytes moved per byte resident), sites the analyzer proved
traffic-dead are pinned to DDR outright, and only then does the
HBM-until-full fill run.  Like the baseline it never intercepts
messages — the interesting part happened at lint time.

Guidance comes from the file named by the ``$REPRO_GUIDANCE``
environment variable, else from a one-shot in-process analysis of
:mod:`repro.apps` (cached per interpreter, so sweeps do not re-parse per
run).

A runtime block labelled ``"StencilChare[3].grid"`` maps to guidance
site ``"StencilChare.grid"``; node-group-shared blocks
(``"MatMulPanels[nodegroup].shared('A', 2)"``) map to
``"MatMulPanels.A"``.
"""

from __future__ import annotations

import os
import typing as _t

from repro.core.strategies.naive import NaiveStrategy
from repro.errors import SchedulingError
from repro.mem.block import DataBlock
from repro.runtime.pe import PE

if _t.TYPE_CHECKING:
    from repro.lint.guidance import GuidanceFile

__all__ = ["StaticGuidedStrategy", "block_site_id"]

#: one-shot module-level cache for the auto-built repro.apps guidance
_DEFAULT_GUIDANCE: _t.Optional["GuidanceFile"] = None


def block_site_id(block: DataBlock) -> str | None:
    """Map a runtime block label back to its static allocation site."""
    head, sep, name = block.name.partition("].")
    if not sep:
        return None
    cls = head.split("[", 1)[0]
    if name.startswith("shared"):
        # share_block keys render as shared('A', 2) / shared3 / shared'x'
        key = name[len("shared"):]
        if key.startswith("("):
            key = key[1:].split(",", 1)[0]
        key = key.strip().strip("'\"")
        if not key:
            return None
        name = key
    return f"{cls}.{name}"


def _resolve_guidance() -> "GuidanceFile":
    """``$REPRO_GUIDANCE`` when set, else the cached repro.apps analysis."""
    path = os.environ.get("REPRO_GUIDANCE")
    if path:
        from repro.lint.guidance import load_guidance
        return load_guidance(path)
    global _DEFAULT_GUIDANCE
    if _DEFAULT_GUIDANCE is None:
        import repro.apps as _apps
        from repro.lint.guidance import build_guidance
        _DEFAULT_GUIDANCE = build_guidance(
            [os.path.dirname(_apps.__file__)])
    return _DEFAULT_GUIDANCE


class StaticGuidedStrategy(NaiveStrategy):
    """Static placement ordered by bwlint's inferred traffic density."""

    name = "static-guided"
    intercepts = False

    def __init__(self) -> None:
        super().__init__()
        self._guidance: "GuidanceFile | None" = None
        self.blocks_pinned_ddr = 0

    def guidance(self) -> "GuidanceFile":
        if self._guidance is None:
            self._guidance = _resolve_guidance()
        return self._guidance

    def place_initial(self, blocks: _t.Iterable[DataBlock]) -> None:
        guide = self.guidance()
        mgr = self._mgr()
        ranked: list[tuple[float, int, DataBlock]] = []
        pinned: list[DataBlock] = []
        for seq, block in enumerate(blocks):
            site = block_site_id(block)
            if site is not None and guide.tier(site) == "ddr":
                pinned.append(block)
                continue
            priority = guide.priority(site) if site is not None else 1.0
            ranked.append((priority, seq, block))
        # highest traffic density claims HBM first; equal densities keep
        # arrival order, so a uniform-density app places exactly like the
        # naive baseline (stable sort on the negated key)
        ranked.sort(key=lambda item: (-item[0], item[1]))
        super().place_initial(block for _prio, _seq, block in ranked)
        for block in pinned:
            mgr.topology.place_block(block, mgr.ddr)
            self.blocks_in_ddr += 1
            self.blocks_pinned_ddr += 1

    def submit(self, pe: PE, task) -> _t.Generator:  # pragma: no cover
        raise SchedulingError(
            "StaticGuidedStrategy never intercepts messages")
        yield

    def task_finished(self, pe: PE, task) -> _t.Generator:  # pragma: no cover
        raise SchedulingError(
            "StaticGuidedStrategy never intercepts messages")
        yield
