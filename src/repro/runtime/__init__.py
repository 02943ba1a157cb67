"""A Charm++-flavoured tasking runtime over the simulated machine.

Implements the pieces of the Charm++/Converse stack the paper builds on
(§III-A): over-decomposed *chares* organised in chare arrays, *entry
methods* with the ``[prefetch]`` attribute and data-dependence annotations,
a per-PE *converse scheduler* that delivers messages, and the interception
hook the paper adds in front of delivery.

The actual out-of-core scheduling strategies live in :mod:`repro.core`;
this package is deliberately strategy-agnostic.
"""

from repro.runtime.message import Message
from repro.runtime.entry import EntrySpec, entry
from repro.runtime.chare import Chare, ChareArray, NodeGroup
from repro.runtime.pe import PE
from repro.runtime.reduction import Reducer
from repro.runtime.loadbalance import round_robin_map
from repro.runtime.runtime import CharmRuntime

__all__ = [
    "Message",
    "EntrySpec", "entry",
    "Chare", "ChareArray", "NodeGroup",
    "PE", "Reducer",
    "round_robin_map",
    "CharmRuntime",
]
