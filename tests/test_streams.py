"""Tests for the stacked seeding of generators: every seed keeps its default_rng stream."""

import numpy as np
import pytest

from bicorr.streams import CROSSOVER, generators, pcg64_states

SEEDS = (
    list(range(30_000))
    + list(range(2**32 - 50, 2**32 + 50))
    + list(range(2**64 - 3_000, 2**64 + 50))
    + [2**128, 2**200 + 3]
)


def fresh_state(seed) -> dict:
    return np.random.default_rng(seed).bit_generator.state


def test_states_equal_default_rng_on_seeds_of_one_to_seven_words():
    states = list(pcg64_states(SEEDS))
    assert len(states) == len(SEEDS)
    for seed, (state, inc) in zip(SEEDS, states):
        assert fresh_state(seed)["state"] == {"state": state, "inc": inc}, seed


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_numpy_integer_seeds_give_their_ints_states(dtype):
    top = np.iinfo(dtype).max
    seeds = np.array([0, 1, 2**32 - 1, 2**32, top - 1, top] * 4, dtype=dtype)
    for seed, rng in zip(seeds, generators(seeds)):
        assert rng.bit_generator.state == fresh_state(int(seed))
    as_list = list(seeds)  # numpy scalars, not Python ints
    for seed, rng in zip(as_list, generators(as_list)):
        assert rng.bit_generator.state == fresh_state(int(seed))


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
def test_stacks_either_side_of_the_crossover_start_each_seed_fresh(n):
    seeds = [2**64 - 3 + i for i in range(n)]
    rngs = list(generators(seeds))
    assert len(rngs) == n
    # Above the crossover one Generator is reused, so compare as each seed is yielded.
    for seed, rng in zip(seeds, generators(seeds)):
        assert rng.bit_generator.state == fresh_state(seed)
    assert (len({id(rng) for rng in rngs}) == 1) == (n >= CROSSOVER)


def test_empty_stack():
    assert list(pcg64_states([])) == []
    assert list(generators([])) == []
    assert list(generators(np.empty(0, dtype=np.uint64))) == []


def test_draws_equal_those_of_fresh_generators():
    # Each draw kind verify and the fixtures use, after the previous seed's draws, so state
    # the reused Generator carries (a buffered uint32, the binomial's cache) must not leak.
    seeds = list(range(100, 300)) + [2**64 + 7, 2**200 + 3]
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    for seed, rng in zip(seeds, generators(seeds)):
        fresh = np.random.default_rng(seed)
        for draw in (
            lambda g: g.standard_normal(out=np.empty((2, 4))),
            lambda g: g.exponential(1.0, size=3),
            lambda g: g.random(),
            lambda g: g.multinomial(10_000 + seed % 7, probs),
            lambda g: g.integers(2**32, size=3, dtype=np.uint32),
        ):
            assert np.array_equal(draw(rng), draw(fresh)), seed


@pytest.mark.parametrize(
    "seeds",
    [[1.5] + list(range(40)), list(range(40)) + [2.5], list(range(20)) + [np.float64(3.0)]],
    ids=["first", "last", "numpy float"],
)
def test_a_non_integer_seed_in_a_large_stack_raises_type_error(seeds):
    with pytest.raises(TypeError):
        list(generators(seeds))


@pytest.mark.parametrize("n", [1, CROSSOVER + 24])
def test_a_negative_seed_raises_value_error(n):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        list(generators(list(range(n)) + [-1]))
