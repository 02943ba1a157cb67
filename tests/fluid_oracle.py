"""Reference fluid solvers the tests hold :class:`FluidNetwork` to.

:class:`FluidNetwork` defers each re-solve to a same-instant flush,
restricts it to the touched connected component, and replays memoized
component rates.  All three are wall-clock optimisations: none may change a
simulated quantity.  The classes here drop them one at a time.

* :class:`UnmemoizedFluidNetwork` keeps the deferred component-local
  solve but always runs the progressive-filling kernel.
* :class:`EagerFluidNetwork` is the oracle: every flow-set change
  re-solves every flow on every link at once, unmemoized, and re-arms
  the completion wake from the fresh rates.

To run a whole runtime under the oracle, monkeypatch
``repro.machine.node.FluidNetwork`` with :class:`EagerFluidNetwork`.
"""

from __future__ import annotations

from repro.sim.fluid import FluidNetwork


class UnmemoizedFluidNetwork(FluidNetwork):
    """The shipped solver with the component memo bypassed."""

    def _solve(self, key, links, popped) -> None:
        # the shipped miss path's flow order: first occurrences along the
        # closure walk's visit order
        self._progressive_fill(
            dict.fromkeys([f for link in popped for f in link.flows]), links)


class EagerFluidNetwork(UnmemoizedFluidNetwork):
    """Solve everything on every change; never defer, never memoize."""

    def _mark_dirty(self, links) -> None:
        # never sets ``_dirty``: rates are current the moment this returns
        self._progressive_fill(self._flows, self._links.values())
        self._schedule_wake()
