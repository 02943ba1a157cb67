"""The paper's contribution: memory-heterogeneity-aware OOC scheduling.

Provides the :class:`~repro.core.manager.OOCManager` (the interception layer
added to Converse), the HBM capacity tracker, reference-count-gated eviction
policies, and the three scheduling strategies of §IV-B plus the three static
baselines of the evaluation:

========================  =========================================
strategy                  paper name
========================  =========================================
``NaiveStrategy``         Baseline / "Naive" (HBM until full, spill)
``DDROnlyStrategy``       DDR4only
``HBMOnlyStrategy``       (Figure 2's in-HBM configuration)
``SingleIOThreadStrategy``Multiple queues, Single IO thread
``NoIOThreadStrategy``    Multiple queues, no IO thread (synchronous)
``MultiIOThreadStrategy`` Multiple queues, Multiple IO threads
========================  =========================================
"""

from repro.core.ooc_task import OOCTask, TaskState
from repro.core.hbm import HBMTracker
from repro.core.eviction import (
    EvictionPolicy,
    OwnBlocksEviction,
    LRUEviction,
)
from repro.core.manager import OOCManager
from repro.core.strategies import (
    Strategy,
    NaiveStrategy,
    DDROnlyStrategy,
    HBMOnlyStrategy,
    SingleIOThreadStrategy,
    NoIOThreadStrategy,
    MultiIOThreadStrategy,
    STRATEGIES,
    make_strategy,
)

__all__ = [
    "OOCTask", "TaskState",
    "HBMTracker",
    "EvictionPolicy", "OwnBlocksEviction", "LRUEviction",
    "OOCManager",
    "Strategy",
    "NaiveStrategy", "DDROnlyStrategy", "HBMOnlyStrategy",
    "SingleIOThreadStrategy", "NoIOThreadStrategy", "MultiIOThreadStrategy",
    "STRATEGIES", "make_strategy",
]
