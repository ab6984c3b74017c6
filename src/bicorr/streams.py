"""Generators for a stack of seeds, each on its own ``np.random.default_rng(seed)`` stream.

``np.random.default_rng(seed)`` hashes the seed's 32-bit words into a pool of four words
(numpy's ``SeedSequence``), expands the pool into four 64-bit words, and starts PCG64
(O'Neill, 2014) from them: two words seed its 128-bit state, two its increment.  Every step is
fixed integer arithmetic, so ``pcg64_states`` runs it on a whole stack of seeds at once, and
``generators`` sets one ``Generator`` to each seed's state in turn.  The streams are the seeds'
own ``default_rng`` streams, bit for bit; the seed maps pinned in the tests would show it if
numpy ever changed its seeding.
"""

from __future__ import annotations

import numpy as np

# Below this many seeds one default_rng per seed is faster than the stacked seeding, whose fixed
# cost is about 50 us.  Seeding and one draw each, on a 2-core x86-64 VM with numpy 2.4: 12 seeds
# took 62 us per seed and 70 us stacked, 16 seeds 82 and 76 us.
CROSSOVER = 16
CHUNK = 1024  # seeds made into Python ints at a time, which bounds the memory they take

MASK32, MASK128 = 2**32 - 1, 2**128 - 1
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _chain(const: int, mult: int, count: int) -> np.ndarray:
    """The hash constants const, const * mult, ... (mod 2**32), count + 1 of them, as a column."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & MASK32)
    return np.array(chain, np.uint32)[:, None]


def _hash(value: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value with each constant of chain but the last, in turn."""
    value = (value ^ chain[:-1]) * chain[1:]  # uint32 arrays wrap, as SeedSequence's C does
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * MIX_MULT_L - y * MIX_MULT_R
    return value ^ value >> 16


def _generate_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) per row of words (n, w), w words a seed.

    The pool is (4, n), one row per pool word.  Each step of SeedSequence that hashes one
    value with consecutive constants is one call of ``_hash`` on the constants' column.
    """
    n, w = words.shape
    entropy = np.zeros((max(w, 4), n), np.uint32)
    entropy[:w] = words.T
    chain = _chain(INIT_A, MULT_A, 16 + 4 * (len(entropy) - 4))
    pool = _hash(entropy[:4], chain[:5])  # the first four words, zeros past the last
    for src in range(4):  # every pool word mixed into every other
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hash(pool[src], chain[4 + 3 * src : 8 + 3 * src]))
    for src in range(4, w):  # any further words mixed into each pool word
        pool = _mix(pool, _hash(entropy[src], chain[4 * src : 4 * src + 5]))
    out = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _chain(INIT_B, MULT_B, 8))
    return out.T.astype("<u4", order="C").view("<u8")


def pcg64_states(seeds: list):
    """The PCG64 (state, inc) of ``np.random.default_rng(s)`` for each non-negative integer s.

    The states are yielded in turn, made into Python ints CHUNK seeds at a time.
    """
    width = max(1, -(-int(max(seeds, default=0)).bit_length() // 32))
    values = np.array(seeds, dtype=np.uint64 if width <= 2 else object)
    words = np.stack([(values >> 32 * j & MASK32).astype(np.uint32) for j in range(width)], -1)
    nonzero = words != 0  # a seed has words up to its last non-zero one, and at least one
    counts = np.where(nonzero.any(axis=-1), width - nonzero[:, ::-1].argmax(axis=-1), 1)
    seeded = np.empty((len(seeds), 4), np.uint64)
    for count in set(counts.tolist()):
        rows = counts == count
        seeded[rows] = _generate_state(words[rows, :count])
    for start in range(0, len(seeded), CHUNK):
        for s_high, s_low, i_high, i_low in seeded[start : start + CHUNK].tolist():
            inc = ((i_high << 64 | i_low) << 1 | 1) & MASK128  # pcg64_set_seed, on Python ints
            yield (((s_high << 64 | s_low) + inc) * PCG64_MULT + inc) & MASK128, inc


def generators(seeds):
    """Per seed, in order, a ``Generator`` at the start of ``np.random.default_rng(seed)``'s stream.

    From CROSSOVER seeds on, all of them non-negative integers of any size, one Generator is
    set to each seed's state in turn, so draw from it before taking the next.  Otherwise each
    seed gets its own ``default_rng``, which raises for a seed it rejects as it would alone.
    """
    seeds = np.asarray(seeds, dtype=object).tolist()  # an integer array's values as Python ints
    integers = all(issubclass(t, (int, np.integer)) for t in set(map(type, seeds)))
    if len(seeds) < CROSSOVER or not integers or min(seeds) < 0:
        yield from map(np.random.default_rng, seeds)
        return
    rng, inner = np.random.default_rng(0), {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for inner["state"], inner["inc"] in pcg64_states(seeds):  # the state dict, filled in place
        rng.bit_generator.state = state
        yield rng
