"""STREAM benchmark over the device model (paper Figure 1).

McCalpin's STREAM kernels and their per-element traffic (8-byte doubles):

=========  ==================  =====  ======
kernel     operation           reads  writes
=========  ==================  =====  ======
copy       a[i] = b[i]           1      1
scale      a[i] = q*b[i]         1      1
add        a[i] = b[i]+c[i]      2      1
triad      a[i] = b[i]+q*c[i]    2      1
=========  ==================  =====  ======

STREAM reports ``bytes_touched / best_time``.  We run ``threads`` concurrent
streaming kernels against one device and measure exactly that, which is the
calibration anchor for the ~4x MCDRAM:DDR4 ratio the paper's Figure 1 shows.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ExperimentError
from repro.machine.node import MachineNode
from repro.mem.device import MemoryDevice
from repro.units import MiB

__all__ = ["STREAM_KERNELS", "StreamResult", "run_stream"]

#: timed repetitions per measurement; the best one is reported
_REPEATS = 3

#: kernel name -> (reads per element, writes per element)
STREAM_KERNELS: dict[str, tuple[int, int]] = {
    "copy": (1, 1),
    "scale": (1, 1),
    "add": (2, 1),
    "triad": (2, 1),
}


@dataclasses.dataclass
class StreamResult:
    """One STREAM measurement."""

    kernel: str
    device: str
    threads: int
    array_bytes: int
    bytes_touched: float
    elapsed: float

    @property
    def bandwidth(self) -> float:
        """Aggregate bandwidth, B/s (STREAM convention)."""
        return self.bytes_touched / self.elapsed if self.elapsed > 0 else 0.0


def run_stream(node: MachineNode, device: MemoryDevice | str, *,
               kernel: str = "triad", threads: int | None = None,
               array_bytes: int = 64 * MiB) -> StreamResult:
    """Measure STREAM bandwidth for ``kernel`` on ``device``.

    Each thread streams its own ``array_bytes`` working array; the reported
    bandwidth is total touched bytes over the elapsed (simulated) time of
    the slowest thread, best of :data:`_REPEATS` — mirroring real STREAM.
    """
    if kernel not in STREAM_KERNELS:
        raise ExperimentError(
            f"unknown STREAM kernel {kernel!r}; choose from {sorted(STREAM_KERNELS)}")
    if isinstance(device, str):
        device = node.topology.device(device)
    cores = node.config.cores
    nthreads = threads if threads is not None else cores
    if nthreads < 1 or nthreads > cores:
        raise ExperimentError(
            f"threads must be in [1, {cores}], got {nthreads}")
    reads, writes = STREAM_KERNELS[kernel]
    read_bytes = float(reads * array_bytes)
    write_bytes = float(writes * array_bytes)
    per_thread_bytes = read_bytes + write_bytes

    env = node.env
    best_elapsed = float("inf")
    for _rep in range(_REPEATS):
        start = env.now
        # Fast path: a streaming kernel with no compute floor is exactly one
        # mixed flow per thread, so start the flows directly instead of
        # spawning a simulated process per thread just to await them.  All
        # flows begin at the same instant, which the incremental fluid
        # solver batches into a single rate solve.
        done_events = []
        for _tid in range(nthreads):
            flow = device.mixed_flow(read_bytes, write_bytes,
                                     max_rate=node.core_mem_bandwidth)
            done_events.append(flow.done)
            node.kernels_executed += 1
        env.run(env.all_of(done_events))
        best_elapsed = min(best_elapsed, env.now - start)

    return StreamResult(
        kernel=kernel, device=device.name, threads=nthreads,
        array_bytes=array_bytes,
        bytes_touched=per_thread_bytes * nthreads,
        elapsed=best_elapsed)
