"""Named deterministic random streams.

Every stochastic choice in the library draws from a named stream derived
from a single root seed, so (a) runs are bit-reproducible and (b) adding a
new consumer of randomness does not perturb existing streams — essential
when comparing scheduling strategies, which must see identical workloads.

A stream is :class:`PCG64Stream`, a pure-Python mirror of
``numpy.random.default_rng(seed)`` for the two draws the library makes
(``random()`` and ``integers(low, high)``).  It reproduces numpy's
SeedSequence seeding, the PCG64 XSL-RR generator and numpy's sampling
bit for bit, so simulated inputs match what numpy would have drawn.  It
keeps numpy out of every figure run's process, and it pins the stream in
this file rather than in numpy's ``Generator``, whose sampling methods
NEP 19 lets change between numpy releases.
"""

from __future__ import annotations

import hashlib

__all__ = ["PCG64Stream", "RandomStreams"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy.random.SeedSequence's hashmix constants (pool of 4 uint32 words)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

#: PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``, for 0 <= seed < 2**128.

    Such a seed is at most four 32-bit words, so it fits the pool; numpy
    hashes 0 for the pool words past the entropy, which is what the
    zero-padded words below hash to.
    """
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(seed >> (32 * i) & _MASK32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * hashmix(pool[src])) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)

    hash_const = _INIT_B
    words = []
    for i in range(8):      # 4 uint64 outputs, as uint32 pairs
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ (value >> 16))
    # two little-endian uint32 words per uint64
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64Stream:
    """``numpy.random.default_rng(seed)``, for the draws the library makes.

    Bit-exact with numpy's PCG64 ``Generator``: ``random()`` and
    ``integers(low, high)`` return the same values in the same order, and
    share numpy's buffered upper half-word between 32-bit draws.
    """

    __slots__ = ("_state", "_inc", "_carry")

    def __init__(self, seed: int):
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {seed}")
        s0, s1, s2, s3 = _seed_state(seed)
        # pcg64_set_seed: state and sequence are (high, low) word pairs
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        # one step from state 0 lands on the increment
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        #: upper half of the last 64-bit word a 32-bit draw split, if unused
        self._carry: int | None = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT
                               + self._inc) & _MASK128
        # XSL-RR: xor the halves, rotate right by the top 6 bits
        word = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        carry = self._carry
        if carry is not None:
            self._carry = None
            return carry
        word = self._next64()
        self._carry = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), by Lemire's method on 32-bit draws.

        Like numpy, a one-value range draws nothing; spans wider than
        2**32 (numpy's 64-bit path) are not covered.
        """
        span = high - low - 1
        if span < 0:
            raise ValueError(f"low >= high ({low} >= {high})")
        if span > _MASK32:
            raise ValueError(f"range [{low}, {high}) is wider than 2**32")
        if span == 0:
            return low
        bound = span + 1
        m = self._next32() * bound
        leftover = m & _MASK32
        if leftover < bound:
            threshold = (_MASK32 - span) % bound
            while leftover < threshold:
                m = self._next32() * bound
                leftover = m & _MASK32
        return low + (m >> 32)


class RandomStreams:
    """Factory of independent, named :class:`PCG64Stream` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, PCG64Stream] = {}

    def stream(self, name: str) -> PCG64Stream:
        """The generator for ``name`` (created on first use, then cached)."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = PCG64Stream(child_seed)
        return self._streams[name]

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} streams={sorted(self._streams)}>"
