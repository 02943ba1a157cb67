"""Reference fluid solvers the tests hold :class:`FluidNetwork` to.

:class:`FluidNetwork` defers each re-solve to a same-instant flush,
restricts it to the touched connected component, and replays memoized
rate vectors.  All three are wall-clock optimisations: none may change a
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
    """The shipped solver with the flow-set memo bypassed."""

    def _solve(self, flows, links) -> None:
        self._progressive_fill(flows, links)


class EagerFluidNetwork(UnmemoizedFluidNetwork):
    """Solve everything on every change; never defer, never memoize."""

    def _mark_dirty(self, links) -> None:
        # never sets ``_dirty``: rates are current the moment this returns
        self._solve(self._flows, self._links.values())
        self._schedule_wake()
