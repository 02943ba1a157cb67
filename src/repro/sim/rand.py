"""Named deterministic random streams.

Every stochastic choice in the library draws from a named stream derived
from a single root seed, so (a) runs are bit-reproducible and (b) adding a
new consumer of randomness does not perturb existing streams — essential
when comparing scheduling strategies, which must see identical workloads.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of independent, named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
