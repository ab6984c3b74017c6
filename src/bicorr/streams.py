"""Generators for a stack of seeds, each on its own ``np.random.default_rng(seed)`` stream.

``np.random.default_rng(seed)`` is ``Generator(PCG64(SeedSequence(seed)))``.  ``SeedSequence``
hashes the seed's 32-bit words into a pool of four words, and PCG64 asks it for the pool expanded
into four 64-bit words, two for its 128-bit state and two for its increment.  Every step of the
hash is fixed integer arithmetic, and it hashes 0 in place of a missing word, so ``seed_words``
runs it in one call on a stack of at least CROSSOVER seeds, all below 2**64, as each seed's two
32-bit words; every other stack goes to ``SeedSequence`` seed by seed.
``generators`` then starts a fresh PCG64 from each seed's words through numpy's seed-sequence
interface (``ISeedSequence``), which numpy's bit generators accept in place of a
``SeedSequence``.  The streams are the seeds' own ``default_rng`` streams, bit for bit; the seed
maps pinned in the tests would show it if numpy ever changed its seeding, and a bit generator
that asked for other words would raise.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Below this many seeds numpy's own SeedSequence per seed is faster than the stacked kernel,
# whose fixed cost is about 35 us.  Words, a fresh Generator and 8 normals per seed, best of 7,
# on a 2-core x86-64 VM with numpy 2.4: 10 seeds took 59 us one by one and 62 us stacked, 11
# seeds 66 and 63 us.
CROSSOVER = 11

MASK32 = 2**32 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _chain(const: int, mult: int, count: int) -> np.ndarray:
    """The hash constants const, const * mult, ... (mod 2**32), count + 1 of them, as a column."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & MASK32)
    return np.array(chain, np.uint32)[:, None]


# The constants of SeedSequence's two hashes: the pool's (16 steps) and the output's (8).
CHAIN_A, CHAIN_B = _chain(INIT_A, MULT_A, 16), _chain(INIT_B, MULT_B, 8)


def _hash(value: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value with each constant of chain but the last, in turn."""
    value = (value ^ chain[:-1]) * chain[1:]  # uint32 arrays wrap, as SeedSequence's C does
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * MIX_MULT_L - y * MIX_MULT_R
    return value ^ value >> 16


def _generate_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) per row of words (n, 2), a seed's two
    32-bit words, low first.

    SeedSequence hashes a missing word as 0, so the two words padded with zeros fill its pool of
    four.  The pool is (4, n), one row per pool word.  Each step of SeedSequence that hashes one
    value with consecutive constants is one call of ``_hash`` on the constants' column.
    """
    entropy = np.zeros((4, len(words)), np.uint32)
    entropy[:2] = words.T
    pool = _hash(entropy, CHAIN_A[:5])
    for src in range(4):  # every pool word mixed into every other
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], CHAIN_A[4 + 3 * src : 8 + 3 * src]))
    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], CHAIN_B)
    return out.T.astype("<u4", order="C").view("<u8")


def seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each seed s, as the rows of (n, 4).

    The seeds are non-negative integers of any size, as the callers check.  A stack of at least
    CROSSOVER seeds, all below 2**64, is hashed by ``_generate_state`` in one call; every other
    stack gets numpy's SeedSequence seed by seed.
    """
    seeds = np.asarray(seeds, dtype=object).tolist()  # an integer array's values as Python ints
    if len(seeds) >= CROSSOVER and max(seeds) < 2**64:
        return _generate_state(np.array(seeds, "<u8").view("<u4").reshape(-1, 2))
    seeded = np.empty((len(seeds), 4), np.uint64)
    for row, seed in zip(seeded, seeds):
        row[:] = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    return seeded


class _Words(ISeedSequence):
    """A seed sequence that hands a bit generator the four uint64 words it was made with."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        dtype = np.dtype(dtype)
        if n_words != 4 or dtype != np.uint64:
            raise ValueError(f"seeded for 4 uint64 words, asked for {n_words} {dtype}")
        return self.words


def generators(words: np.ndarray):
    """A fresh ``Generator`` per row of words, in order.

    words are ``seed_words(seeds)``; row i's generator is at the start of the stream of
    ``default_rng(seeds[i])``, and no two share any state.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)  # PCG64 reads each row's native bytes
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for row in words:
        yield generator(pcg64(_Words(row)))
