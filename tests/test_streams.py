"""Tests for the stacked seeding of generators: every seed keeps its default_rng stream."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicorr
from bicorr import streams
from bicorr.streams import CROSSOVER, generators, seed_words

SEEDS = (
    list(range(30_000))
    + list(range(2**32 - 50, 2**32 + 50))
    + list(range(2**64 - 3_000, 2**64 + 50))
    + [2**128, 2**200 + 3]
)


def fresh_state(seed) -> dict:
    return np.random.default_rng(seed).bit_generator.state


def test_states_equal_default_rng_on_seeds_of_one_to_seven_words():
    words = seed_words(SEEDS)
    assert words.shape == (len(SEEDS), 4) and words.dtype == np.uint64
    rngs = generators(words)
    for seed, row, rng in zip(SEEDS, words, rngs, strict=True):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes(), seed
        assert rng.bit_generator.state == fresh_state(seed), seed


@pytest.mark.parametrize(
    "seeds, kernel_calls",
    [([s for s in SEEDS if s < 2**64], 1), (list(range(2**64 - 20, 2**64 + 2)), 0)],
    ids=["all below 2**64", "one from 2**64 up"],
)
def test_only_a_stack_below_2_64_is_hashed_in_one_kernel_call(seeds, kernel_calls, monkeypatch):
    calls, kernel = [], streams._generate_state
    monkeypatch.setattr(streams, "_generate_state", lambda w: calls.append(w.shape) or kernel(w))
    words = seed_words(seeds)
    assert calls == [(len(seeds), 2)] * kernel_calls
    for seed, row in zip(seeds, words, strict=True):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes(), seed


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_numpy_integer_seeds_give_their_ints_states(dtype):
    top = np.iinfo(dtype).max
    seeds = np.array([0, 1, 2**32 - 1, 2**32, top - 1, top] * 4, dtype=dtype)
    for seed, rng in zip(seeds, generators(seed_words(seeds))):
        assert rng.bit_generator.state == fresh_state(int(seed))
    as_list = list(seeds)  # numpy scalars, not Python ints
    for seed, rng in zip(as_list, generators(seed_words(as_list))):
        assert rng.bit_generator.state == fresh_state(int(seed))


@pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1])
def test_stacks_either_side_of_the_crossover_start_each_seed_fresh(n):
    seeds = [2**64 - 3 + i for i in range(n)]
    rngs = list(generators(seed_words(seeds)))
    assert len(rngs) == n
    for seed, rng in zip(seeds, rngs):
        assert rng.bit_generator.state == fresh_state(seed)
    assert len({id(rng) for rng in rngs}) == n  # every Generator is its own object


def test_held_generators_each_draw_their_seeds_stream():
    # All 40 are taken before the first draw, so none may share state with another.
    seeds = list(range(500, 540))
    rngs = list(generators(seed_words(seeds)))
    for seed, rng in zip(seeds, rngs):
        fresh = np.random.default_rng(seed)
        assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5)), seed


def test_empty_stack():
    for seeds in ([], np.empty(0, dtype=np.uint64)):
        words = seed_words(seeds)
        assert words.shape == (0, 4) and words.dtype == np.uint64
        assert list(generators(words)) == []


def test_draws_equal_those_of_fresh_generators():
    # Each draw kind verify and the fixtures use, after the previous seed's draws.
    seeds = list(range(100, 300)) + [2**64 + 7, 2**200 + 3]
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    for seed, rng in zip(seeds, generators(seed_words(seeds))):
        fresh = np.random.default_rng(seed)
        for draw in (
            lambda g: g.standard_normal(out=np.empty((2, 4))),
            lambda g: g.exponential(1.0, size=3),
            lambda g: g.random(),
            lambda g: g.multinomial(10_000 + seed % 7, probs),
            lambda g: g.integers(2**32, size=3, dtype=np.uint32),
        ):
            assert np.array_equal(draw(rng), draw(fresh)), seed


@pytest.mark.parametrize("n", [1])  # below the crossover, numpy's SeedSequence checks each seed
def test_a_negative_seed_raises_value_error(n):
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        seed_words(list(range(n)) + [-1])


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_the_words_serve_only_a_request_for_four_uint64(n_words, dtype):
    # A bit generator that seeded itself from other words would silently change every stream.
    words = streams._Words(seed_words([7])[0])
    assert words.generate_state(4, np.uint64).tobytes() == words.words.tobytes()
    with pytest.raises(ValueError, match="^seeded for 4 uint64 words"):
        words.generate_state(n_words, dtype)


# Runs in a fresh process: imports bicorr and its CLI, runs the exact commands, and reports
# which of the lazily loaded modules are in sys.modules before and after a shot run.  A module
# that numpy itself imports in this interpreter is not bicorr's to defer, so it is left out.
LAZY = ("numpy.random", "bicorr.shotsim", "bicorr.verify", "bicorr.streams", "dataclasses")
START_UP = """
import contextlib, io, json, sys
import numpy
by_numpy = {"dataclasses"} & set(sys.modules)
import bicorr, bicorr.cli

def loaded():
    return [name for name in %r if name in sys.modules and name not in by_numpy]

bell, werner = sys.argv[1] + "/bell.json", sys.argv[1] + "/werner.json"
exact = [
    ["gen", "--kind", "bell-psim", "--out", bell],
    ["gen", "--kind", "werner", "--xi", "0.5", "--out", werner],
    ["analyze", "--json", bell],
    ["analyze", "--json", werner],
    ["detect", bell],
    ["detect", "--json", werner],
    ["sweep-werner", "--from", "0", "--to", "1", "--steps", "3", "--json"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [bicorr.cli.main(argv) for argv in exact]
    after_exact = loaded()
    codes.append(bicorr.cli.main(["detect", "--shots", "1000", bell]))
print(json.dumps({
    "codes": codes, "after_exact": after_exact, "after_shots": loaded(), "by_numpy": sorted(by_numpy)
}))
""" % (LAZY,)


def test_exact_commands_load_no_numpy_random_shotsim_verify_streams_or_dataclasses(tmp_path):
    # Every module imported at start-up is compiled and run by every command: numpy.random is
    # imported on the first draw, bicorr.streams on the first random state, bicorr.shotsim by a
    # shot run and bicorr.verify by `verify`.  A shot run seeds numpy's own default_rng, so it
    # loads no bicorr.streams; its records are no dataclasses, so it loads no dataclasses.
    env = {**os.environ, "PYTHONPATH": str(Path(bicorr.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", START_UP, str(tmp_path)],
        capture_output=True, text=True, check=True, env=env,
    )
    got = json.loads(out.stdout)
    shot_run = ("numpy.random", "bicorr.shotsim")
    assert got == {
        "codes": [0, 0, 0, 0, 1, 2, 0, 1],
        "after_exact": [],
        "after_shots": [name for name in shot_run if name not in got["by_numpy"]],
        "by_numpy": got["by_numpy"],
    }
