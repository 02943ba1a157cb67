"""Scheduling strategies (§IV-B) and static baselines (§IV-B, §V)."""

from repro.core.strategies.base import Strategy
from repro.core.strategies.naive import NaiveStrategy
from repro.core.strategies.ddr_only import DDROnlyStrategy
from repro.core.strategies.hbm_only import HBMOnlyStrategy
from repro.core.strategies.single_io import SingleIOThreadStrategy
from repro.core.strategies.no_io import NoIOThreadStrategy
from repro.core.strategies.multi_io import MultiIOThreadStrategy
from repro.core.strategies.static_guided import StaticGuidedStrategy
from repro.core.strategies.phase_guided import PhaseGuidedStrategy

#: registry used by the benchmark harness (paper series names, plus the
#: bwlint-guided placements added on top of them)
STRATEGIES: dict[str, type[Strategy]] = {
    "naive": NaiveStrategy,
    "ddr-only": DDROnlyStrategy,
    "hbm-only": HBMOnlyStrategy,
    "single-io": SingleIOThreadStrategy,
    "no-io": NoIOThreadStrategy,
    "multi-io": MultiIOThreadStrategy,
    "static-guided": StaticGuidedStrategy,
    "phase-guided": PhaseGuidedStrategy,
}


def make_strategy(name: str) -> Strategy:
    """Instantiate a strategy by its registry name."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    return cls()


__all__ = [
    "Strategy",
    "NaiveStrategy", "DDROnlyStrategy", "HBMOnlyStrategy",
    "SingleIOThreadStrategy", "NoIOThreadStrategy", "MultiIOThreadStrategy",
    "StaticGuidedStrategy", "PhaseGuidedStrategy", "STRATEGIES",
    "make_strategy",
]
