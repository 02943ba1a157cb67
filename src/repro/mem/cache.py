"""KNL *cache mode* model: MCDRAM as a direct-mapped cache of DDR4.

The paper's motivation (§I, §III-B): "caching could result in increased
latency from conflict misses or capacity misses", which is why it targets
flat mode.  The paper defers a quantitative flat-vs-cache comparison to
future work; we implement the model so the ablation bench can perform it.

In cache mode the 16 GB MCDRAM is a direct-mapped, memory-side cache of
DDR4 with placement by physical address.  Two analytic components drive the
miss rate for an iteratively-swept working set of ``W`` bytes against a
cache of ``C`` bytes:

* **capacity misses** — a cyclic sweep of ``W > C`` thrashes a fraction
  ``(W - C) / W`` of its accesses at minimum;
* **conflict misses** — with OS pages scattered pseudo-randomly over page
  frames, distinct hot pages collide in the same cache set even when
  ``W <= C``.  For ``n`` resident lines over ``s`` sets the expected
  fraction of lines sharing a set is ``1 - (s/n)(1 - (1 - 1/s)^n)``, the
  classic occupancy result; colliding lines ping-pong every iteration.

The closed form is validated in the tests against a small Monte-Carlo
set-mapping simulation.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["DirectMappedCache"]


#: cache line, bytes
LINE_SIZE = 64
#: extra *effective* occupancy per missing line, seconds.  Misses overlap
#: heavily in a memory-side cache, so this is the pipelined per-line cost
#: (~1 ns), not the raw fill round-trip latency.
MISS_LATENCY_PENALTY = 1.0e-9
#: fraction of random-placement conflicts the OS avoids by sorting free
#: pages by cache colour (KNL's kernel "zonesort").  0 models fully
#: fragmented physical memory; 1 models perfect colouring (contiguous
#: regions never self-conflict in an address-indexed direct-mapped cache).
PAGE_COLORING_QUALITY = 0.7
#: sweeps over the working set that amortise the cold-start sweep; the
#: paper's workloads run 20 iterations
REUSE_SWEEPS = 20


class DirectMappedCache:
    """Analytic direct-mapped memory-side cache."""

    def __init__(self, capacity: int, *,
                 hit_bandwidth: float = 380e9,
                 miss_bandwidth: float = 85e9):
        if capacity <= 0:
            raise ConfigError("cache capacity must be > 0")
        if capacity % LINE_SIZE:
            raise ConfigError("cache capacity must be a multiple of line size")
        self.capacity = int(capacity)
        self.sets = self.capacity // LINE_SIZE
        #: bandwidth served on hit (MCDRAM) and miss (DDR4 fill), B/s
        self.hit_bandwidth = float(hit_bandwidth)
        self.miss_bandwidth = float(miss_bandwidth)

    # -- miss-rate model -----------------------------------------------------

    def conflict_fraction(self, working_set: int) -> float:
        """Expected fraction of hot lines that share a set with another.

        Occupancy model: throwing ``n`` balls into ``s`` bins, the expected
        number of balls alone in their bin is ``n * (1 - 1/s)^(n-1)``.
        """
        n = min(working_set, self.capacity) // LINE_SIZE
        if n <= 1:
            return 0.0
        s = self.sets
        alone = (1.0 - 1.0 / s) ** (n - 1)
        return (1.0 - alone) * (1.0 - PAGE_COLORING_QUALITY)

    def miss_rate(self, working_set: int) -> float:
        """Steady-state miss rate of a cyclic sweep over ``working_set``,
        cold start amortised over :data:`REUSE_SWEEPS` sweeps."""
        if working_set <= 0:
            return 0.0
        w = float(working_set)
        c = float(self.capacity)
        if w <= c:
            # Pure conflicts: a colliding pair alternately evicts itself
            # each sweep, so every colliding line misses once per sweep.
            steady = self.conflict_fraction(working_set)
        else:
            # Cyclic sweep larger than the cache: LRU-like thrash. For a
            # direct-mapped cache with uniform mapping the hit probability
            # of a line is the chance its set was not touched by any of the
            # other (w-c)/line "overflow" lines since last visit; a standard
            # first-order model is hit ≈ c/w (fraction of sweep resident).
            steady = 1.0 - c / w
            steady = steady + (1.0 - steady) * self.conflict_fraction(working_set)
        cold = 1.0 / REUSE_SWEEPS
        return min(1.0, steady * (1.0 - cold) + cold)

    # -- effective service rates ----------------------------------------------

    def effective_bandwidth(self, working_set: int) -> float:
        """Average service bandwidth of a sweep, hits+misses combined."""
        m = self.miss_rate(working_set)
        # Per-byte service time is a miss-rate-weighted harmonic blend; the
        # miss path also pays the transaction latency amortised per line.
        hit_t = 1.0 / self.hit_bandwidth
        miss_t = 1.0 / self.miss_bandwidth + MISS_LATENCY_PENALTY / LINE_SIZE
        per_byte = (1.0 - m) * hit_t + m * miss_t
        return 1.0 / per_byte

    def sweep_time(self, working_set: int, total_bytes: float) -> float:
        """Seconds to stream ``total_bytes`` with this working set."""
        if total_bytes <= 0:
            return 0.0
        return total_bytes / self.effective_bandwidth(working_set)

    def __repr__(self) -> str:
        return (f"<DirectMappedCache {self.capacity}B lines={LINE_SIZE} "
                f"sets={self.sets}>")
