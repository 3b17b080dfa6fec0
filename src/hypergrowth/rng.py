"""Deterministic pseudo-random numbers for the property suites.

Everything randomized in this package draws from the 64-bit linear
congruential generator below, so that a (seed, draw sequence) pair pins
down the sampled objects exactly, across runs and across ports to other
languages.

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

A draw returns the new state.  randint reduces the raw value with a
plain modulus, so it reads the state's low bits, and those have short
periods (bit j repeats every 2^(j+1) draws): randint(0, 1) alternates
0, 1, 0, 1, ... and randint(0, 3) cycles through four values.  Its
draws are kept as they are because the acceptance suites' sampled
objects are pinned by them.  Draws that must look random in small
ranges should come from the high bits instead, as bit() does, or as
``lo + (next_u64() * span >> 64)``.
"""

from __future__ import annotations

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """64-bit LCG; seed 0 is the suite default."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state

    def bit(self) -> int:
        """Top bit of the next draw."""
        return self.next_u64() >> 63

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]
