"""Property tests of the integer rule at the input boundary (``qstate._integers``).

Every seed, count, shot budget and trial budget goes through one rule: an int or a numpy integer
in range passes, and anything else (a bool, float, str, None, nested entry or an out-of-range
integer) raises ``ValueError``.  Each strategy mixes values that pass with every kind that does
not.  The property: a call returns, or raises a ``ValueError`` subclass, and never warns.

No valid large size is ever run: the mixtures' valid counts are at most 6, and ``run_all`` gets
invalid draws only, with an ``out`` that fails the test if any check runs.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bicorr import states
from bicorr.shotsim import ShotConfig
from bicorr.verify import run_all

# Derandomized, so that tier-1 runs the same examples every time, and kept small enough that the
# module adds about a second.
BOUNDARY = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def entries(ints: st.SearchStrategy, numpy_ints: st.SearchStrategy) -> st.SearchStrategy:
    """ints, numpy integers, and every kind of entry that is not an integer."""
    return st.one_of(
        ints,
        numpy_ints,
        st.booleans(),
        st.sampled_from([np.True_, np.False_]),
        st.floats(),
        st.floats(-3, 3).map(np.float64),
        st.integers(-3, 3).map(float),  # a float equal to an integer is still a float
        st.complex_numbers(max_magnitude=2),
        st.text(max_size=3),
        st.none(),
    )


def stacks(entry: st.SearchStrategy, integer: st.SearchStrategy) -> st.SearchStrategy:
    """One entry; a list of up to 50, some of them lists (ragged or two-dimensional); or a list
    of up to 50 integers, which passes unless one is out of range."""
    return st.one_of(
        entry,
        st.lists(st.one_of(entry, st.lists(entry, max_size=3)), max_size=50),
        st.lists(integer, max_size=50),
    )


NUMPY_INTS = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
)
# Any integer, huge and negative ones included: a seed of any size is drawn, and costs no more.
INTS = st.one_of(st.integers(), st.integers(-(2**70), 2**70), st.integers(2**64 - 3, 2**64 + 3))
VALUES = stacks(entries(INTS, NUMPY_INTS), st.one_of(INTS, NUMPY_INTS))
# A valid count allocates its size per seed, so no count from 7 to 2**63 - 1 is drawn.
COUNT_INTS = st.one_of(st.integers(1, 6), st.integers(max_value=0), st.integers(min_value=2**63))
COUNT_NUMPY_INTS = st.one_of(
    st.integers(1, 6).map(np.int64),
    st.integers(-(2**63), 0).map(np.int64),
    st.integers(2**63, 2**64 - 1).map(np.uint64),
    st.integers(-128, 6).map(np.int8),
)
COUNTS = stacks(entries(COUNT_INTS, COUNT_NUMPY_INTS), st.one_of(COUNT_INTS, COUNT_NUMPY_INTS))
XIS = stacks(entries(st.integers(-2, 2), NUMPY_INTS), st.floats(-0.5, 1.5))


def outcome(call, *args):
    """call(*args), or the ValueError it raises; a warning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args)
        except ValueError as exc:
            return exc


def is_integer(value, low, high) -> bool:
    """The rule for one value, written out plainly as the reference."""
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integral and low <= int(value) < high


GENERATORS = [
    states.haar_random_pure,
    states.random_product_pure,
    states.random_separable_mixed,
    states.random_mixed,
    states.random_density,
]


@pytest.mark.parametrize("draw", GENERATORS, ids=lambda draw: draw.__name__)
@BOUNDARY
@given(seed=VALUES)
def test_a_generator_draws_or_refuses_any_seed(draw, seed):
    drawn = outcome(draw, seed)
    if isinstance(seed, list):
        if all(is_integer(one, 0, math.inf) for one in seed):
            assert drawn.shape[0] == len(seed)
    elif is_integer(seed, 0, math.inf):
        assert drawn.shape[-1] == 4
    else:
        assert isinstance(drawn, ValueError)


@pytest.mark.parametrize(
    "draw", [states.random_separable_mixed, states.random_mixed], ids=lambda draw: draw.__name__
)
@BOUNDARY
@given(seed=VALUES, k=COUNTS)
def test_a_mixture_draws_or_refuses_any_count(draw, seed, k):
    drawn = outcome(draw, seed, k)
    if is_integer(seed, 0, math.inf) and is_integer(k, 1, 2**63):
        assert drawn.shape == (4, 4)
    elif not isinstance(k, list) and not is_integer(k, 1, 2**63):
        assert isinstance(drawn, ValueError)


@BOUNDARY
@given(shots=VALUES, seed=VALUES)
def test_shot_config_holds_python_ints_or_refuses(shots, seed):
    cfg = outcome(ShotConfig, shots, seed)
    if is_integer(shots, 100, 2**53 + 1) and is_integer(seed, 0, 2**64):
        assert (cfg.shots, cfg.seed) == (int(shots), int(seed))
        assert type(cfg.shots) is int and type(cfg.seed) is int
    else:
        assert isinstance(cfg, ValueError)


def no_check_may_run(line):
    pytest.fail(f"a check ran: {line}")


@BOUNDARY
@given(trials=VALUES, seed=VALUES)
def test_run_all_refuses_an_invalid_budget_or_seed_before_any_check(trials, seed):
    assume(not (is_integer(trials, 100, math.inf) and is_integer(seed, 0, 2**64)))
    refused = outcome(run_all, trials, seed, no_check_may_run)
    assert isinstance(refused, ValueError) and str(refused).startswith(("trials ", "seed "))


@BOUNDARY
@given(xi=XIS)
def test_werner_draws_or_refuses_any_mixing_parameter(xi):
    outcome(states.werner, xi)
