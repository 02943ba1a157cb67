"""Messages: the unit of work delivery in the converse layer.

"When a message arrives for an object, the converse scheduler delivers the
message and in turn the object executes the corresponding entry method for
the message." (§III-A)
"""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.chare import Chare
    from repro.runtime.entry import EntrySpec

__all__ = ["Message"]


class Message:
    """An entry-method invocation in flight (never subclassed).

    ``mid`` numbers the message within its run: the sending
    :class:`~repro.runtime.runtime.CharmRuntime` hands the numbers out.
    """

    __slots__ = ("mid", "target", "entry", "args", "kwargs", "nbytes",
                 "intercepted")

    def __init__(self, mid: int, target: "Chare", entry: "EntrySpec",
                 args: tuple = (), kwargs: dict | None = None,
                 nbytes: int = 0):
        self.mid = mid
        self.target = target
        self.entry = entry
        self.args = args
        self.kwargs = {} if kwargs is None else kwargs
        #: payload size, for communication-cost accounting
        self.nbytes = nbytes if type(nbytes) is int else int(nbytes)
        #: set once the OOC manager has seen this message, so a ready task
        #: re-entering the converse queue is not intercepted twice
        self.intercepted = False

    def __repr__(self) -> str:
        tgt = getattr(self.target, "label", type(self.target).__name__)
        return f"<Message #{self.mid} {tgt}.{self.entry.name}>"
