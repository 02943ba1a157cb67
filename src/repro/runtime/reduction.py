"""Reductions and barriers across chare collections.

Iterative Charm++ applications coordinate through contribute/reduction
cycles; Stencil3D's "20 iterations" driver uses one reducer per sweep to
detect that every chare finished its kernel before starting the next.
"""

from __future__ import annotations

import typing as _t

from repro import hooks as _probe
from repro.errors import RuntimeModelError
from repro.sim.environment import Environment
from repro.sim.events import Event

__all__ = ["Reducer"]


class Reducer:
    """Counts ``expected`` contributions, then fires ``done`` with them.

    Supports an optional combiner (e.g. ``sum``/``max``) applied to the
    contributed values; with no combiner the values list is delivered.
    """

    def __init__(self, env: Environment, expected: int, *,
                 combiner: _t.Callable[[list], _t.Any] | None = None,
                 name: str = "reduction"):
        if expected <= 0:
            raise RuntimeModelError(
                f"reducer {name!r}: expected contributions must be > 0")
        self.env = env
        self.name = name
        self.expected = expected
        self.combiner = combiner
        self.values: list = []
        self.done: Event = env.event(name=f"{name}.done")

    @property
    def received(self) -> int:
        return len(self.values)

    @property
    def complete(self) -> bool:
        return self.done.triggered

    def contribute(self, value: _t.Any = None) -> None:
        """Add one contribution; fires ``done`` on the last one."""
        if self.complete:
            raise RuntimeModelError(
                f"reducer {self.name!r}: contribute after completion "
                f"({self.expected} already received)")
        self.values.append(value)
        if len(self.values) == self.expected:
            result = (self.combiner(self.values) if self.combiner is not None
                      else list(self.values))
            self.done.succeed(result)
            if _probe.on_reduce is not None:
                _probe.on_reduce(self)

    def __repr__(self) -> str:
        return (f"<Reducer {self.name} {self.received}/{self.expected}"
                f"{' done' if self.complete else ''}>")
