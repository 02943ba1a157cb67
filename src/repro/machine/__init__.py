"""KNL-class machine models.

Binds the memory substrate to per-core compute and bandwidth rates and
provides kernel execution primitives (compute floor + memory flows) plus
the STREAM bandwidth measurement used to calibrate against the paper's
Figure 1.
"""

from repro.machine.node import MachineNode
from repro.machine.knl import build_knl, build_machine
from repro.machine.stream import StreamResult, run_stream

__all__ = [
    "MachineNode",
    "build_knl", "build_machine",
    "StreamResult", "run_stream",
]
