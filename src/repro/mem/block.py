"""Data blocks — the ``CkIOHandle`` analog.

The paper (§IV-A) has applications declare their bandwidth-sensitive data as
``CkIOHandle<T>`` members, "which allows the runtime system to store and
query metadata about the data block".  Each handle carries:

* an **access intent** from the entry-method annotation
  (``readonly`` / ``readwrite`` / ``writeonly``),
* a **placement state** — the paper's two states ``INHBM`` and ``INDDR``
  (we add transient ``MOVING`` so in-flight transfers are observable),
* a **reference count**, "incremented every time a task depending on the
  block is scheduled", which gates eviction in the post-processing step.
"""

from __future__ import annotations

import enum
import typing as _t
from heapq import heapify, heappush

from repro import hooks as _probe
from repro.errors import BlockStateError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.ooc_task import OOCTask
    from repro.mem.allocator import Allocation
    from repro.mem.device import MemoryDevice

__all__ = ["AccessIntent", "BlockState", "DataBlock", "IdleIndex"]


class AccessIntent(enum.Enum):
    """How a task uses a dependence block (from the ``.ci`` annotation).

    ``reads``/``writes`` are plain attributes rather than properties:
    the race detector consults them per block per task, and a property
    call there is measurable against the rest of the fast path.
    """

    READONLY = ("readonly", True, False)
    READWRITE = ("readwrite", True, True)
    WRITEONLY = ("writeonly", False, True)

    reads: bool
    writes: bool

    def __new__(cls, label: str, reads: bool, writes: bool) -> "AccessIntent":
        obj = object.__new__(cls)
        obj._value_ = label
        obj.reads = reads
        obj.writes = writes
        return obj


class BlockState(enum.Enum):
    """Placement state of a block (paper: ``INHBM`` / ``INDDR``)."""

    INHBM = "INHBM"
    INDDR = "INDDR"
    #: transfer in flight (transient; the paper treats this inside its locks)
    MOVING = "MOVING"


#: An idle index compacts its victim heap once the stale entries outnumber
#: the live ones more than STALE_FACTOR times over, plus STALE_SLACK (so a
#: near-empty index does not compact on every change).
STALE_FACTOR = 2
STALE_SLACK = 64


class IdleIndex(dict):
    """The blocks settled on an HBM device with refcount 0, and their
    eviction order.

    A dict ``bid -> entry``: the keys are the idle blocks' ids in
    insertion order, and each value is the block's current entry in
    ``heap``, a lazy min-heap in victim order.  An entry is the victim
    key itself: ``(0, last_scheduled_at or -1.0, bid)`` for a block no
    queued task needs (least recently scheduled first) and ``(1,
    -next_use, bid)`` for one that queued tasks still need (farthest
    next use first).  A re-key pushes a new entry and leaves the old one
    in the heap; an entry is live exactly while it *is* its block's value
    here, so readers recognise stale entries by identity and drop them.
    Ids, not blocks: see :class:`~repro.mem.device.MemoryDevice`.

    DataBlock's transitions keep it current: :meth:`remove` when a block
    leaves (``retain`` from 0, ``begin_move``, a re-placement) and
    :meth:`push` whenever an idle block gets a key (``release`` to 0, a
    ``settle`` into HBM at refcount 0, ``add_demand``/``drop_demand``
    while idle).
    """

    __slots__ = ("heap",)

    def __init__(self) -> None:
        super().__init__()
        self.heap: list[tuple[int, float, int]] = []

    def push(self, block: "DataBlock") -> None:
        """Index ``block`` under its current victim key."""
        bid = block.bid
        if block._pending:
            entry = (1, -block.next_use, bid)
        else:
            ts = block.last_scheduled_at
            entry = (0, -1.0 if ts is None else ts, bid)
        if self.get(bid) != entry:
            self[bid] = entry
            heappush(self.heap, entry)
            if len(self.heap) > (STALE_FACTOR + 1) * len(self) + STALE_SLACK:
                self.compact()

    def remove(self, bid: int) -> None:
        """Take block ``bid`` out; its heap entry goes stale."""
        del self[bid]
        if len(self.heap) > (STALE_FACTOR + 1) * len(self) + STALE_SLACK:
            self.compact()

    def compact(self) -> None:
        """Drop every stale entry from the heap."""
        get = self.get
        heap = self.heap
        heap[:] = [entry for entry in heap if get(entry[2]) is entry]
        heapify(heap)


class DataBlock:
    """A contiguous application data block managed by the runtime.

    Blocks are *metadata only* — the simulation never materialises their
    bytes.  ``payload`` may hold a small numpy array for functional
    verification in the example apps (sized-down mirrors of the simulated
    blocks).
    """

    __slots__ = (
        "bid", "name", "nbytes", "state", "device", "allocation",
        "_refcount", "_pending", "_next_use", "pinned",
        "last_scheduled_at", "bytes_moved", "payload", "_idle_index",
    )

    def __init__(self, name: str, nbytes: int, *, bid: int,
                 payload: _t.Any = None):
        if nbytes < 0:
            raise BlockStateError(f"block {name!r} size must be >= 0")
        self.bid = bid
        self.name = name
        self.nbytes = int(nbytes)
        self.state = BlockState.INDDR
        #: the device currently hosting the bytes
        self.device: "MemoryDevice | None" = None
        #: live allocation handle on ``device``
        self.allocation: "Allocation | None" = None
        self._refcount = 0
        # Pending demand: queued-but-unfinished tasks referencing this
        # block, keyed by serial.  The wait queues are FIFO, so the
        # smallest pending serial approximates the block's next use —
        # which lets eviction be Belady-like instead of guessing.  The
        # values are the tasks whose ``missing`` byte counts this block's
        # state transitions keep current.
        self._pending: dict[int, "OOCTask"] = {}
        self._next_use: int | None = None  # cached min(self._pending)
        #: pinned blocks are never evicted (used by node-group caching)
        self.pinned = False
        self.last_scheduled_at: float | None = None
        self.bytes_moved = 0
        self.payload = payload
        # The idle index of the device this block is settled on in HBM
        # (``MemoryDevice.idle_blocks``), else None.  The block's bid is
        # in that index exactly while its refcount is 0; retain/release/
        # begin_move/settle keep it so, and add_demand/drop_demand keep
        # its victim key current.
        self._idle_index: IdleIndex | None = None

    # -- reference counting -------------------------------------------------

    @property
    def refcount(self) -> int:
        return self._refcount

    @property
    def in_use(self) -> bool:
        """Paper: a block may only be evicted when its refcount is zero."""
        return self._refcount > 0

    def retain(self, now: float | None = None) -> int:
        """Increment the refcount (a dependent task was scheduled)."""
        if _probe.on_retain is not None:
            _probe.on_retain(self)
        self._refcount += 1
        if self._refcount == 1 and self._idle_index is not None:
            self._idle_index.remove(self.bid)
        if now is not None:
            self.last_scheduled_at = now
        return self._refcount

    def release(self) -> int:
        """Decrement the refcount (a dependent task finished)."""
        if _probe.on_release is not None:
            _probe.on_release(self)
        if self._refcount <= 0:
            raise BlockStateError(
                f"refcount underflow on block {self.name!r}")
        self._refcount -= 1
        if self._refcount == 0 and self._idle_index is not None:
            self._idle_index.push(self)
        return self._refcount

    @property
    def demand(self) -> int:
        """Queued tasks (waiting, fetching, ready or running) needing this block."""
        return len(self._pending)

    @property
    def next_use(self) -> int:
        """Serial of the earliest pending task needing this block.

        Smaller = needed sooner.  Blocks with no pending tasks report a
        sentinel larger than any serial (farthest possible next use).
        """
        if not self._pending:
            return 1 << 62
        if self._next_use is None:
            self._next_use = min(self._pending)
        return self._next_use

    def add_demand(self, task_serial: int, task: "OOCTask") -> None:
        """Register ``task`` as needing this block; its ``missing`` count
        tracks this block's ``INDDR`` residency until :meth:`drop_demand`."""
        self._pending[task_serial] = task
        if self._next_use is not None and task_serial < self._next_use:
            self._next_use = task_serial
        if self._refcount == 0 and self._idle_index is not None:
            self._idle_index.push(self)

    def drop_demand(self, task_serial: int) -> None:
        try:
            del self._pending[task_serial]
        except KeyError:
            raise BlockStateError(
                f"demand underflow on block {self.name!r}") from None
        if self._next_use == task_serial:
            self._next_use = None  # recompute lazily
        if self._refcount == 0 and self._idle_index is not None:
            self._idle_index.push(self)

    # -- placement ------------------------------------------------------------

    @property
    def in_hbm(self) -> bool:
        return self.state is BlockState.INHBM

    @property
    def moving(self) -> bool:
        return self.state is BlockState.MOVING

    # begin_move() and settle() are the only state transitions (REP200),
    # so they are where pending tasks' ``missing`` counts follow the block
    # into and out of INDDR, and where it leaves and joins the idle index.

    def begin_move(self) -> None:
        if _probe.on_begin_move is not None:
            _probe.on_begin_move(self)
        if self.state is BlockState.MOVING:
            raise BlockStateError(f"block {self.name!r} is already moving")
        if self.state is BlockState.INDDR:
            nbytes = self.nbytes
            for task in self._pending.values():
                task.missing -= nbytes
        if self._idle_index is not None:
            if self._refcount == 0:
                self._idle_index.remove(self.bid)
            self._idle_index = None
        self.state = BlockState.MOVING

    def settle(self, device: "MemoryDevice", state: BlockState) -> None:
        """Finish a move: bind to ``device`` with a concrete state."""
        if state is BlockState.MOVING:
            raise BlockStateError("settle() needs a concrete state")
        was_ddr = self.state is BlockState.INDDR
        if was_ddr is not (state is BlockState.INDDR):
            delta = -self.nbytes if was_ddr else self.nbytes
            for task in self._pending.values():
                task.missing += delta
        self.device = device
        self.state = state
        index = device.idle_blocks if state is BlockState.INHBM else None
        if index is not self._idle_index:
            # a re-placement without begin_move (place_block after
            # release_block) may leave an old index behind
            if self._refcount == 0:
                if self._idle_index is not None:
                    self._idle_index.remove(self.bid)
                if index is not None:
                    index.push(self)
            self._idle_index = index
        if _probe.on_settle is not None:
            _probe.on_settle(self)

    def __repr__(self) -> str:
        dev = self.device.name if self.device else "-"
        return (f"<DataBlock #{self.bid} {self.name!r} {self.nbytes}B "
                f"{self.state.value}@{dev} rc={self._refcount}>")
