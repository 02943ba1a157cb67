"""Host-speed probe: a fixed pure-Python event loop, timed before each run.

The simulator is interpreter-bound Python, and on a shared host its speed
drifts by 10-50% over minutes as neighbours come and go.  A round times
this probe (~20 ms) before each of its runs and after the last, and
scales each run's times by ``REFERENCE_S`` over the mean of the two
probes around it: seconds at the speed of the host the baseline was
recorded on.

The probe uses nothing from ``src/``, so no change to the code under test
can move it, and it disables the cyclic GC while it runs, so a larger
live heap left behind by a run does not slow it either.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: the probe's time on the host the baseline was recorded on
REFERENCE_S = 0.02
EVENTS = 8_000
ACTORS = 64


class _Msg:
    __slots__ = ("dst", "size")

    def __init__(self, dst: int, size: int):
        self.dst, self.size = dst, size


def _actor(totals: dict[int, int]):
    inbox: list[_Msg] = []
    while True:
        msg = yield
        totals[msg.dst] = totals.get(msg.dst, 0) + msg.size
        inbox.append(msg)
        if len(inbox) > 32:
            inbox.clear()


def probe() -> float:
    """Seconds to run a fixed heap-scheduled message loop over generators."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        totals: dict[int, int] = {}
        actors = [_actor(totals) for _ in range(ACTORS)]
        for actor in actors:
            next(actor)
        queue = [(0.0, 0, _Msg(1, 8))]
        seq = 1
        for _ in range(EVENTS):
            now, _, msg = heapq.heappop(queue)
            actors[msg.dst].send(msg)
            for k in (1, 2):
                heapq.heappush(queue, (now + 1e-3 * (seq % 13 + 1), seq,
                                       _Msg((msg.dst * 7 + k) % ACTORS,
                                            msg.size + k)))
                seq += 1
            if len(queue) > 256:
                queue = heapq.nsmallest(128, queue)  # sorted, so a heap
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
