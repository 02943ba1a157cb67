"""Deterministic discrete-event simulation (DES) kernel.

This package is the substrate everything else runs on: a small,
simpy-flavoured event loop with generator-based processes, the IO threads'
wake-up :class:`Gate`, the FIFO :class:`Store` behind every run queue, and a
max-min fair-share *fluid* bandwidth model used to simulate memory-device
contention.

The kernel is single-threaded and fully deterministic: events scheduled for
the same timestamp fire in scheduling order, and all randomness used anywhere
in the library flows through :class:`repro.sim.rand.RandomStreams`.
"""

from repro.sim.events import Event, AllOf
from repro.sim.environment import Environment
from repro.sim.process import Process
from repro.sim.sync import Gate
from repro.sim.resources import Store
from repro.sim.fluid import FluidNetwork, Link, Flow
from repro.sim.rand import RandomStreams

__all__ = [
    "Event", "AllOf",
    "Environment", "Process",
    "Gate", "Store",
    "FluidNetwork", "Link", "Flow",
    "RandomStreams",
]
