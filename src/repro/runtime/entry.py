"""Entry-method declarations: the ``.ci`` file analog (paper §IV-A).

The paper annotates bandwidth-sensitive entry methods in the Charm++
interface file::

    entry [prefetch] void compute_kernel() [readwrite: A, writeonly: B]

Here the same declaration is a decorator::

    class Compute(Chare):
        @entry(prefetch=True, readwrite=["A"], writeonly=["B"])
        def compute_kernel(self):
            yield from self.kernel(flops=..., reads=[self.A], writes=[self.B])

Dependence names refer to chare attributes holding a
:class:`~repro.mem.block.DataBlock` (or an iterable of them, resolved at
message time, so data-dependent block lists work).
"""

from __future__ import annotations

import typing as _t

from repro.errors import EntryMethodError
from repro.mem.block import AccessIntent, DataBlock

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.chare import Chare

__all__ = ["EntrySpec", "entry"]

#: attribute set on decorated functions, collected by Chare.__init_subclass__
_SPEC_ATTR = "_repro_entry_spec"


class EntrySpec:
    """Metadata for one entry method of a chare class."""

    __slots__ = ("name", "func", "prefetch", "deps")

    def __init__(self, name: str, func: _t.Callable, prefetch: bool,
                 deps: tuple[tuple[str, AccessIntent], ...]):
        self.name = name
        self.func = func
        #: the paper's ``[prefetch]`` attribute
        self.prefetch = prefetch
        #: ``(attribute name, intent)`` pairs from the annotation
        self.deps = deps

    def resolve_deps(self, chare: "Chare") -> list[tuple[DataBlock, AccessIntent]]:
        """Look up the dependence blocks on a concrete chare instance.

        Resolution happens at message time, so data-dependent block lists
        (any non-string iterable of :class:`DataBlock`) work.  Every failure
        names the chare class, the entry method and the offending attribute —
        these errors surface deep inside the interception layer, far from the
        declaration that caused them.
        """
        resolved: list[tuple[DataBlock, AccessIntent]] = []
        where = f"{type(chare).__name__}.{self.name}"
        for attr, intent in self.deps:
            try:
                value = getattr(chare, attr)
            except AttributeError:
                raise EntryMethodError(
                    f"{where}: dependence attribute {attr!r} does not exist "
                    "on the chare (declared on @entry but never assigned)"
                ) from None
            if value is None:
                continue
            if isinstance(value, DataBlock):
                resolved.append((value, intent))
            elif isinstance(value, _t.Iterable) and not isinstance(
                    value, (str, bytes)):
                for index, item in enumerate(value):
                    if not isinstance(item, DataBlock):
                        raise EntryMethodError(
                            f"{where}: dependence attribute {attr!r} "
                            f"contains a non-DataBlock at index {index}: "
                            f"{item!r} ({type(item).__name__})")
                    resolved.append((item, intent))
            else:
                raise EntryMethodError(
                    f"{where}: dependence attribute {attr!r} is "
                    f"{type(value).__name__}, expected a DataBlock or an "
                    "iterable of DataBlocks")
        return resolved

    def __repr__(self) -> str:
        flags = "[prefetch] " if self.prefetch else ""
        deps = ", ".join(f"{intent.value}:{attr}" for attr, intent in self.deps)
        return f"<EntrySpec {flags}{self.name}({deps})>"


def entry(func: _t.Callable | None = None, *, prefetch: bool = False,
          readonly: _t.Sequence[str] = (),
          readwrite: _t.Sequence[str] = (),
          writeonly: _t.Sequence[str] = ()) -> _t.Callable:
    """Declare a chare method as an entry method.

    Usable bare (``@entry``) or with annotations
    (``@entry(prefetch=True, readwrite=["A"])``).
    """

    def decorate(f: _t.Callable) -> _t.Callable:
        deps: list[tuple[str, AccessIntent]] = []
        seen: set[str] = set()
        for names, intent in ((readonly, AccessIntent.READONLY),
                              (readwrite, AccessIntent.READWRITE),
                              (writeonly, AccessIntent.WRITEONLY)):
            for attr in names:
                if attr in seen:
                    raise EntryMethodError(
                        f"entry {f.__name__!r}: dependence {attr!r} "
                        "declared with two intents")
                seen.add(attr)
                deps.append((attr, intent))
        if prefetch and not deps:
            raise EntryMethodError(
                f"entry {f.__name__!r}: [prefetch] requires at least one "
                "declared data dependence")
        setattr(f, _SPEC_ATTR, EntrySpec(f.__name__, f, prefetch, tuple(deps)))
        return f

    if func is not None:
        return decorate(func)
    return decorate


def collect_entry_specs(cls: type) -> dict[str, EntrySpec]:
    """Gather entry specs declared on ``cls`` and its bases."""
    specs: dict[str, EntrySpec] = {}
    for klass in reversed(cls.__mro__):
        for name, member in vars(klass).items():
            spec = getattr(member, _SPEC_ATTR, None)
            if spec is not None:
                specs[name] = spec
    return specs
