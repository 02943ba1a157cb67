"""HBM capacity tracking with in-flight reservations.

"The IO scheduler keeps track of the HBM memory in use out of the total
16GB by keeping track of each block size being brought into HBM.  If...
allocating a data block would exceed the remaining HBM capacity, then the
IO thread goes to sleep." (§IV-B)

Several fetchers can run concurrently (no-IO and multi-IO strategies), so a
capacity *check* alone would race: two fetchers could both see room for the
last 1 GB.  The tracker therefore hands out **reservations** that are held
from the fetch decision until the move's destination allocation is final.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.mem.device import MemoryDevice

__all__ = ["HBMTracker"]


class HBMTracker:
    """Reservation ledger over the HBM device's allocator."""

    def __init__(self, hbm: MemoryDevice):
        self.hbm = hbm
        self.reserved = 0
        self.peak_reserved = 0
        self.rejected_fits = 0

    # -- queries ------------------------------------------------------------

    @property
    def budget(self) -> int:
        """Capacity available to the OOC scheduler."""
        return self.hbm.capacity

    @property
    def in_use(self) -> int:
        """Bytes allocated on the device (resident blocks + in-flight dsts)."""
        return self.hbm.used

    @property
    def uncommitted(self) -> int:
        """Budget minus resident bytes minus outstanding reservations."""
        return self.budget - self.hbm.used - self.reserved

    def can_fit(self, nbytes: int) -> bool:
        fits = nbytes <= self.uncommitted
        if not fits:
            self.rejected_fits += 1
        return fits

    # -- reservations -----------------------------------------------------------

    def reserve(self, nbytes: int) -> int:
        """Reserve space ahead of a fetch; returns the reservation size.

        Raises :class:`SchedulingError` when the space is not there — call
        :meth:`can_fit` first (the strategies always do; a failure here
        means a bookkeeping bug, not a full HBM).
        """
        if nbytes < 0:
            raise SchedulingError("cannot reserve negative bytes")
        if nbytes > self.uncommitted:
            raise SchedulingError(
                f"reservation of {nbytes}B exceeds uncommitted capacity "
                f"({self.uncommitted}B)")
        self.reserved += nbytes
        self.peak_reserved = max(self.peak_reserved, self.reserved)
        return nbytes

    def unreserve(self, nbytes: int) -> None:
        """Release a reservation (after the real allocation landed)."""
        if nbytes > self.reserved:
            raise SchedulingError(
                f"unreserve of {nbytes}B exceeds outstanding {self.reserved}B")
        self.reserved -= nbytes

    def __repr__(self) -> str:
        return (f"<HBMTracker used={self.hbm.used} reserved={self.reserved} "
                f"budget={self.budget}>")
