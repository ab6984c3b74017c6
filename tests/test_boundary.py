"""Property tests of the integer and number rules at the input boundary (``qstate._integers``
and ``qstate._reals``).

Every seed, count, shot budget and trial budget goes through one rule: an int or a numpy integer
in range passes, and anything else (a bool, float, str, None, nested entry or an out-of-range
integer) raises ``ValueError``.  Every probe vector, Bloch vector, Bloch form, Werner xi, state
and state file goes through the other: ints, floats and their numpy kinds (complex ones too for
amplitudes and density matrices), one or a stack of equal rows, pass to the checks of the value,
and a bool, str, None, dict or ragged entry (or a complex one where a real is due) raises
``ValueError``.  Each strategy mixes values that pass with every kind that does not.  The
property: a call returns, or raises a ``ValueError`` subclass, and never warns.  A state that
the input checks accept near their Hermitian, trace and PSD cuts together gets an answer from
every route.

No valid large size is ever run: the mixtures' valid counts are at most 6, and ``run_all`` gets
invalid draws only, with an ``out`` that fails the test if any check runs.
"""

import contextlib
import io
import json
import math
import os
import re
import reprlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bicorr import states
from bicorr.cli import _GEN_KINDS, build_analysis_report, main
from bicorr.correlation import ObservablePair, covariance_direct, covariance_via_c
from bicorr.detect import (
    DEFAULT_Y,
    ENTANGLED,
    SEPARABLE,
    binary_protocol,
    classify_pure_by_rank,
    exact_protocol,
    find_zero_correlation_pair,
    ppt_is_separable,
    schmidt_rank,
)
from bicorr.linalg import ZERO_CORRELATION_TOL
from bicorr.qstate import (
    BlochForm,
    CheckedState,
    as_density_matrix,
    bloch_assemble,
    density_from_pure,
    observable_from_bloch,
    purity,
    validate_pure_state,
)
from bicorr.shotsim import ShotConfig, statistical_binary_protocol
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


# Every kind of entry a real-valued input can hold: numbers of every size (nan, inf and integers
# past a float's range included) in Python and numpy kinds, and every kind that is no real number.
REAL_ENTRIES = st.one_of(
    st.floats(-1, 1),
    st.floats(),
    st.integers(-1, 1),
    st.integers(),
    st.integers(2**63 - 3, 2**1100),
    st.floats(-1, 1).map(np.float64),
    st.floats(-1, 1, width=32).map(np.float32),
    st.integers(-1, 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    st.complex_numbers(max_magnitude=2),
    st.floats(-1, 1).map(np.complex128),
    st.text(max_size=3),
    st.none(),
    st.dictionaries(st.text(max_size=1), st.integers(-1, 1), max_size=1),
)


def rows(entry: st.SearchStrategy, size: int) -> st.SearchStrategy:
    """size entries, as a list or a numpy array of what numpy makes of them."""
    row = st.lists(entry, min_size=size, max_size=size)
    return st.one_of(row, row.map(np.array))


def either(*branches: st.SearchStrategy) -> st.SearchStrategy:
    """One of the branches, each drawn about as often.  ``st.one_of`` flattens nested ones, so
    REAL_ENTRIES' alternatives would outnumber the rest."""
    return st.sampled_from(branches).flatmap(lambda branch: branch)


def reals(number: st.SearchStrategy, size: int) -> st.SearchStrategy:
    """A row of size numbers in range, so that many pass; a row with any entries; one of any
    entry; a list of up to four, some of them lists (ragged or two-dimensional); or a stack of
    two rows in range."""
    return either(
        rows(number, size),
        rows(either(number, REAL_ENTRIES), size),
        REAL_ENTRIES,
        st.lists(st.one_of(REAL_ENTRIES, st.lists(REAL_ENTRIES, max_size=3)), max_size=4),
        st.lists(rows(number, size), min_size=2, max_size=2),
    )


IN_BALL = st.floats(-0.5, 0.5)  # a 3-vector of these lies in the unit ball
VECTORS = reals(IN_BALL, 3)
# Near 0.8 I: three independent probes inside the ball, as an array or as lists.
INDEPENDENT = st.lists(st.floats(-0.1, 0.1), min_size=9, max_size=9).map(
    lambda v: 0.8 * np.eye(3) + np.reshape(v, (3, 3))
)
PROBE_SETS = either(
    INDEPENDENT,
    INDEPENDENT.map(np.ndarray.tolist),
    st.lists(VECTORS, min_size=3, max_size=3),
    VECTORS,
)
# Local vectors and a tensor of entries this small assemble to a state.
SMALL = st.floats(-0.1, 0.1)
FORM_VECTORS = reals(SMALL, 3)
TENSORS = either(st.lists(rows(SMALL, 3), min_size=3, max_size=3), PROBE_SETS)
REAL_XIS = reals(st.floats(0, 1), 2)
SINGLET = density_from_pure(states.bell_state("psi-"))


def non_real(value) -> bool:
    """Whether value holds an entry that is no real number, written out plainly as the reference:
    a numpy array by its dtype, a list by its entries, and one entry by its type."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "iuf"
    if isinstance(value, (list, tuple)):
        return any(non_real(entry) for entry in value)
    kinds = (int, float, np.integer, np.floating)
    return isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds)


def non_number(value) -> bool:
    """Whether value holds an entry that is no number, complex ones admitted, written out plainly
    as the reference: a numpy array by its dtype, a list by its entries, and one entry by its type.
    """
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "iufc"
    if isinstance(value, (list, tuple)):
        return any(non_number(entry) for entry in value)
    kinds = (int, float, complex, np.number)
    return isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds)


def returns_or_refuses(call, *args, refused=non_real):
    """call(*args) returns or raises ValueError, and raises it if refused(arg) holds for an input.
    """
    result = outcome(call, *args)
    if any(refused(arg) for arg in args):
        assert isinstance(result, ValueError), args
    return result


@pytest.mark.parametrize("protocol", [binary_protocol, exact_protocol])
@BOUNDARY
@given(y=VECTORS, xs=PROBE_SETS)
def test_a_protocol_runs_or_refuses_any_probes(protocol, y, xs):
    returns_or_refuses(lambda y, xs: protocol(SINGLET, y, xs), y, xs)


@BOUNDARY
@given(y=VECTORS)
def test_find_zero_correlation_pair_solves_or_refuses_any_y(y):
    returns_or_refuses(lambda y: find_zero_correlation_pair(SINGLET, y), y)


@BOUNDARY
@given(x=VECTORS, y=VECTORS)
def test_an_observable_pair_holds_or_refuses_any_vectors(x, y):
    pair = returns_or_refuses(ObservablePair, x, y)
    if not isinstance(pair, ValueError):
        assert pair.x.dtype == pair.y.dtype == float


@BOUNDARY
@given(x=VECTORS)
def test_observable_from_bloch_builds_or_refuses_any_vector(x):
    returns_or_refuses(observable_from_bloch, x)


@BOUNDARY
@given(a=FORM_VECTORS, b=FORM_VECTORS, f=TENSORS)
def test_bloch_assemble_builds_or_refuses_any_form(a, b, f):
    returns_or_refuses(lambda a, b, f: bloch_assemble(BlochForm(a, b, f)), a, b, f)


@BOUNDARY
@given(xi=REAL_XIS)
def test_werner_draws_or_refuses_any_real_entry(xi):
    returns_or_refuses(states.werner, xi)


def _protocol_y(y):
    return binary_protocol(SINGLET, y=y)


def _bloch_form_a(a):
    return bloch_assemble(BlochForm(a=a, b=np.zeros(3), f=np.zeros((3, 3))))


@pytest.mark.parametrize(
    "call, value, name",
    [
        (_protocol_y, [False, False, True], "y"),
        (_protocol_y, ["0", "0", "1"], "y"),
        (lambda xs: binary_protocol(SINGLET, xs=xs), np.eye(3, dtype=bool), "probe set"),
        (lambda x: ObservablePair(x=x, y=[0, 0, 1]), [True, 0, 0], "x"),
        (observable_from_bloch, [True, 0, 0], "Bloch vector"),
        (_bloch_form_a, ["0.5", 0, 0], "Bloch form"),
        (lambda y: find_zero_correlation_pair(SINGLET, y), [False, False, True], "y"),
        (_protocol_y, [0, 0, 1j], "y"),
        (_protocol_y, {"a": 1}, "y"),
        (lambda y: exact_protocol(SINGLET, y=y), [0, 0, 1j], "y"),
        (_bloch_form_a, [0.5j, 0, 0], "Bloch form"),
        (_protocol_y, [10**400, 0, 0], "y"),
        (_protocol_y, [None, 0, 1], "y"),
        (_protocol_y, [[0, 0], [1]], "y"),
    ],
    ids=[
        "bool y",
        "numeric-string y",
        "bool probe set",
        "bool pair x",
        "bool Bloch vector",
        "numeric-string Bloch form",
        "bool zero-pair y",
        "complex y",
        "dict y",
        "complex exact-protocol y",
        "complex Bloch form",
        "y past a float's range",
        "None in y",
        "ragged y",
    ],
)
def test_a_non_real_input_is_refused_by_the_rule(call, value, name):
    message = f"{name} must be a real number or a stack of them, got {reprlib.repr(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


def _spoiled(state: list, where: int, entry) -> list:
    """state's flat entry number where (modulo their count) replaced by entry."""
    flat = np.array(state, dtype=object)
    flat.reshape(-1)[where % flat.size] = entry
    return flat.tolist()


def states_of(draw, shaped) -> st.SearchStrategy:
    """A generator's state, as an array or as lists of Python complex numbers; that state with one
    entry replaced by any entry; rows of 4 numbers or of any entries, shaped(row) as a state is;
    one entry; a list of up to four, some of them lists; or a stack of two states."""
    state = st.integers(0, 2**32 - 1).map(draw)
    listed = state.map(np.ndarray.tolist)
    unit = either(st.complex_numbers(max_magnitude=1), st.floats(-1, 1), st.integers(-1, 1))
    return either(
        state,
        listed,
        st.builds(_spoiled, listed, st.integers(0, 15), REAL_ENTRIES),
        st.builds(_spoiled, listed, st.integers(0, 15), st.complex_numbers()),
        shaped(rows(unit, 4)),
        shaped(rows(either(unit, REAL_ENTRIES), 4)),
        REAL_ENTRIES,
        st.lists(st.one_of(REAL_ENTRIES, st.lists(REAL_ENTRIES, max_size=3)), max_size=4),
        st.lists(listed, min_size=2, max_size=2),
    )


AMPLITUDES = states_of(states.haar_random_pure, lambda row: row)
MATRICES = states_of(states.random_density, lambda row: st.lists(row, min_size=4, max_size=4))


@BOUNDARY
@given(psi=AMPLITUDES)
def test_amplitudes_are_taken_or_refused(psi):
    for call in (validate_pure_state, density_from_pure, schmidt_rank):
        returns_or_refuses(call, psi, refused=non_number)


@BOUNDARY
@given(rho=MATRICES)
def test_a_matrix_is_taken_or_refused(rho):
    for call in (CheckedState, purity, ppt_is_separable):
        returns_or_refuses(call, rho, refused=non_number)


def _near_cuts(rho, least, trace, skew, where, phase) -> np.ndarray:
    """rho with its least eigenvalue set to least and the others scaled to a trace of 1 + trace,
    then entry where (row * 4 + column) off Hermitian by skew, at phase * pi."""
    w, v = np.linalg.eigh(rho)
    w[1:] *= (1.0 + trace - least) / w[1:].sum()
    w[0] = least
    rho = (v * w) @ v.conj().T
    rho.reshape(16)[where] += skew * np.exp(1j * np.pi * phase)
    return rho


CUT = 1e-9  # HERMITIAN_TOL, NORM_TOL and PSD_TOL alike
NEAR_CUTS = st.builds(
    _near_cuts,
    st.builds(
        lambda draw, seed: draw(seed),
        st.sampled_from(
            [
                lambda seed: density_from_pure(states.haar_random_pure(seed)).matrix,
                lambda seed: density_from_pure(states.random_product_pure(seed)).matrix,
                lambda seed: states.random_mixed(seed, k=2),
                states.random_density,
            ]
        ),
        st.integers(0, 2**32 - 1),
    ),
    st.floats(-1.2 * CUT, 0.2 * CUT),
    st.floats(-1.2 * CUT, 1.2 * CUT),
    st.floats(0.0, 1.2 * CUT),
    st.integers(0, 15),
    st.floats(0.0, 2.0),
)
BALL_PAIRS = st.builds(ObservablePair, rows(IN_BALL, 3), rows(IN_BALL, 3))


@settings(BOUNDARY, max_examples=200)
@given(rho=NEAR_CUTS, pair=BALL_PAIRS, seed=st.integers(0, 2**64 - 1))
def test_a_state_near_its_cuts_gets_an_answer_from_every_route(rho, pair, seed):
    if isinstance(outcome(as_density_matrix, rho), ValueError):
        return  # refused at one of its cuts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_analysis_report(states.StateSpec(as_density_matrix(rho)))
        exact_protocol(rho)
        covariance_direct(rho, pair)
        statistical_binary_protocol(rho, cfg=ShotConfig(shots=10_000, seed=seed))


# Amplitudes that the norm cut accepts, a little off a product state, whose |psi><psi| sums to a
# trace that differs from 1 by more than NORM_TOL: a second, trace cut on |psi><psi| refused them.
NORM_CUT_DOCUMENT = json.dumps({"kind": "pure", "amplitudes": [
    [0.548201034326995, -0.8363465938004544],
    [-6.890970982492907e-07, -3.315868027867398e-07],
    [-7.401289139139656e-07, 1.8105841537984219e-07],
    [1.4864033891232677e-07, -5.527447801650059e-08],
]})


def test_a_document_the_norm_cut_accepts_is_answered_by_every_route(tmp_path):
    spec = states.loads_state(NORM_CUT_DOCUMENT)
    psi = spec.state.amplitudes
    assert spec.state.matrix.tobytes() == (psi[:, None] * psi.conj()).tobytes()
    path = tmp_path / "psi.json"
    path.write_text(NORM_CUT_DOCUMENT)
    assert cli_outcome(["analyze", str(path)]) == 0
    assert cli_outcome(["detect", str(path)]) == 1  # Entangled at probe 3
    assert cli_outcome(["detect", str(path), "--shots", "10000"]) == 0
    assert classify_pure_by_rank(psi).label == ENTANGLED and schmidt_rank(psi) == 2


def test_the_state_of_amplitudes_the_norm_cut_accepts_is_answered_by_every_decider():
    # Its trace differs from 1 by more than NORM_TOL: the amplitudes own its check, not the trace.
    rho = density_from_pure(states.loads_state(NORM_CUT_DOCUMENT).state.amplitudes)
    assert binary_protocol(rho)[0].label == ENTANGLED
    assert exact_protocol(rho)[:2] == (ENTANGLED, 3)
    shots = statistical_binary_protocol(rho, cfg=ShotConfig(shots=10_000))
    assert shots[0].label == SEPARABLE  # c = 2.5e-10 at probe 3 is far below shot noise
    assert ppt_is_separable(rho) is False
    pair = find_zero_correlation_pair(rho, DEFAULT_Y)
    assert abs(covariance_via_c(rho.cm, pair)) <= ZERO_CORRELATION_TOL


ULP = float(np.spacing(1.0))


@BOUNDARY
@given(
    psi=either(
        st.integers(0, 2**32 - 1).map(states.haar_random_pure),
        st.builds(
            lambda seed, weight: states.random_product_pure(seed)
            + weight * states.haar_random_pure(seed + 1),
            st.integers(0, 2**32 - 1),
            st.sampled_from([0.0, 1e-7, 1e-6]),
        ),
    )
)
def test_a_pure_state_straddling_the_norm_cut_is_refused_only_by_its_amplitudes(psi):
    # psi scaled to a norm^2 of 1 +- (NORM_TOL + k ulp), |k| <= 40: the spec takes it exactly when
    # the amplitude check does, and refuses it with the same message.
    unit = psi / math.sqrt(np.sum(np.abs(psi) ** 2))
    for k in range(-40, 41):
        for sign in (-1.0, 1.0):
            scaled = unit * math.sqrt(1.0 + sign * (CUT + k * ULP))
            checked = outcome(validate_pure_state, scaled)
            spec = outcome(lambda psi: states.StateSpec(density_from_pure(psi)), scaled)
            if isinstance(checked, ValueError):
                assert isinstance(spec, ValueError) and str(spec) == str(checked)
            else:
                assert not isinstance(spec, ValueError), (k, sign, spec)


# What a JSON document can hold where a number belongs.
JSON_ENTRIES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(),
    st.integers(),
    st.integers(2**63 - 3, 2**1100),
    st.integers(-(2**1100), -(2**63)),
    st.lists(st.integers(-1, 1), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(-1, 1), max_size=1),
)


def _lists(value: list) -> list:
    """value and every list nested in it."""
    nested = (inner for entry in value if isinstance(entry, list) for inner in _lists(entry))
    return [value, *nested]


@st.composite
def documents(draw) -> tuple[str, list]:
    """A generated state's document, in which up to three entries of the field or of a list in it
    are replaced by any JSON entry or removed, which leaves ragged rows or short pairs; as its
    text, and the field it holds."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        field, state = "amplitudes", density_from_pure(states.haar_random_pure(seed))
    else:
        field, state = "matrix", as_density_matrix(states.random_mixed(seed))
    spec = states.StateSpec(state)
    doc = states.state_doc(spec)
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(_lists(doc[field])))
        if not target:
            continue
        where = draw(st.integers(0, len(target) - 1))
        if draw(st.booleans()):
            del target[where]
        else:
            target[where] = draw(JSON_ENTRIES)
    return json.dumps(doc), doc[field]


@BOUNDARY
@given(document=documents())
def test_a_state_document_is_read_or_refused(document):
    text, pairs = document
    spec = outcome(states.loads_state, text)
    if non_real(pairs):
        assert isinstance(spec, states.ParseError), text


def _matrix_with(entry):
    rho = (np.eye(4) / 4).tolist()
    rho[3][3] = entry
    return rho


@pytest.mark.parametrize(
    "call, value, name",
    [
        (validate_pure_state, ["1", 0, 0, 0], "amplitudes"),
        (validate_pure_state, [True, 0, 0, 0], "amplitudes"),
        (CheckedState, _matrix_with(True), "density matrix"),
        (CheckedState, {"a": 1}, "density matrix"),
        (validate_pure_state, [10**400, 0, 0, 0], "amplitudes"),
        (validate_pure_state, [None, 0, 0, 1], "amplitudes"),
        (density_from_pure, np.array([1, 0, 0, 0], dtype=object), "amplitudes"),
        (purity, _matrix_with("0.25"), "density matrix"),
    ],
    ids=[
        "numeric-string amplitude",
        "bool amplitude",
        "bool matrix entry",
        "dict matrix",
        "amplitude past a float's range",
        "None amplitude",
        "object array of amplitudes",
        "numeric-string matrix entry",
    ],
)
def test_a_state_that_is_not_numbers_is_refused_by_the_rule(call, value, name):
    message = f"{name} must be a number or a stack of them, got {reprlib.repr(value)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize(
    "call, message, worst",
    [
        (lambda v: binary_protocol(SINGLET, y=[v, 0, 0]), "y component {!r} exceeds 1", 2.0**64),
        (states.werner, "xi lies {!r} outside [0, 1]", 2.0**64 - 1),
        (
            lambda v: validate_pure_state([v, 0, 0, 0]),
            "amplitude magnitude {!r} exceeds 1",
            2.0**64,
        ),
    ],
    ids=["y", "xi", "amplitude"],
)
def test_an_int_past_numpys_integers_meets_the_bound_of_its_value(call, message, worst):
    # y and xi refused an int from 2**64 up, held as an object, as no real number.
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(worst))}$"):
        call(2**64)


# Shot budgets of any size: a draw costs the same at any count, so only the config bounds them.
SHOT_BUDGETS = either(st.integers(100, 2**53), st.sampled_from([99, 2**53 + 1]), VALUES)
SHOT_SEEDS = either(st.integers(0, 2**64 - 1), VALUES)
Z_THRESHOLDS = either(st.floats(0.5, 10), REAL_ENTRIES)


@BOUNDARY
@given(y=VECTORS, xs=PROBE_SETS, shots=SHOT_BUDGETS, seed=SHOT_SEEDS, z=Z_THRESHOLDS)
def test_the_shot_protocol_runs_or_refuses_any_probes_and_config(y, xs, shots, seed, z):
    def run(y, xs, shots, seed, z):
        return statistical_binary_protocol(SINGLET, y, xs, ShotConfig(shots, seed, z))

    returns_or_refuses(run, y, xs, shots, seed, z)


# Command-line tokens.  No generated token starts with "-" but the listed ones, so none can
# abbreviate a flag: gen writes only to the paths it is given.
TEXT = st.text(max_size=6).filter(lambda text: not text.startswith("-"))
STRAY = either(TEXT, st.sampled_from(["-h", "--exact", "--", "-1", "-x"]))
NUMBER_TEXT = either(
    st.sampled_from(["0", "-1", "1e5", "nan", "inf", "-inf", "1e999", "2**64", ""]),
    st.integers().map(str),
    st.floats().map(repr),
    TEXT,
)


def text_of(valid: st.SearchStrategy) -> st.SearchStrategy:
    """A flag's value: the text of a valid value, any number's text, or any text."""
    return either(valid.map(str), NUMBER_TEXT)


def at_most(bound: int):
    """A filter that drops the text that int(), as argparse calls it, reads as above bound."""

    def keep(text: str) -> bool:
        try:
            return int(text) <= bound
        except ValueError:
            return True

    return keep


COMPONENTS = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)
VECTOR_TEXT = either(
    COMPONENTS.map(lambda v: ",".join(map(repr, v))),
    st.lists(NUMBER_TEXT, min_size=1, max_size=4).map(",".join),
    TEXT,
)
PROBES_TEXT = either(
    INDEPENDENT.map(lambda xs: ";".join(",".join(map(repr, row)) for row in xs.tolist())),
    st.lists(VECTOR_TEXT, min_size=1, max_size=4).map(";".join),
    TEXT,
)
DOCUMENTS = {
    "singlet.json": states.dumps_state(
        states.StateSpec(density_from_pure(states.bell_state("psi-")))
    ),
    "werner.json": states.dumps_state(states.StateSpec(as_density_matrix(states.werner(0.5)))),
    "product.json": states.dumps_state(
        states.StateSpec(density_from_pure(states.random_product_pure(7)))
    ),
    "inf.json": '{"kind": "pure", "amplitudes": [[1, Infinity], [0, 0], [0, 0], [0, 0]]}',
    "true.json": '{"kind": "pure", "amplitudes": [[true, 0], [0, 0], [0, 0], [0, 0]]}',
    "malformed.json": '{"kind": "pure", "amplitudes": [[1, 0]',
}
STATE_FILES = 3  # the first three DOCUMENTS hold a state


def _argv(command: str, required: dict, options: dict) -> st.SearchStrategy:
    """argv for command: each required flag with a generated value (the key "" stands for a
    positional, which takes the value alone); up to four options, each a flag with a value, or
    alone where its value is None (a switch); and, in one argv of four, a stray token."""

    def token(flag: str, value) -> st.SearchStrategy:
        if value is None:
            return st.just([flag])
        return value.map(lambda text: [flag, text] if flag else [text])

    tokens = st.tuples(
        st.tuples(*(token(flag, value) for flag, value in required.items())),
        st.lists(either(*(token(flag, value) for flag, value in options.items())), max_size=4),
        either(st.just([]), st.just([]), st.just([]), STRAY.map(lambda text: [text])),
    )
    return tokens.map(
        lambda drawn: [command, *(t for group in (*drawn[0], *drawn[1]) for t in group), *drawn[2]]
    )


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Document paths (a missing file and a directory among them) and gen's output paths, of
    which only the null device takes a document."""
    root = tmp_path_factory.mktemp("cli")
    for name, text in DOCUMENTS.items():
        (root / name).write_text(text)
    files = [str(root / name) for name in (*DOCUMENTS, "missing.json")] + [str(root)]
    outs = [os.devnull, str(root / "no-such-dir" / "out.json"), str(root)]
    return files, outs


def cli_argv(command: str, files: list, outs: list) -> st.SearchStrategy:
    """Generated argv for one subcommand: verify's --trials, which it always has, is at most
    100, the least it runs at; sweep-werner's --steps is at most 1,000, gen's --k at most 6, and
    its --out one of outs."""
    file = either(st.sampled_from(files[:STATE_FILES]), st.sampled_from(files))
    seed = text_of(st.integers(0, 2**64))
    xi = text_of(st.floats(0, 1))
    if command == "analyze":
        return _argv(command, {"": file}, {"--json": None})
    if command == "detect":
        options = {
            "--shots": text_of(st.integers(100, 2**53 + 1)),
            "--seed": seed,
            "--z": text_of(st.floats(0, 10)),
            "--y": VECTOR_TEXT,
            "--xs": PROBES_TEXT,
            "--assume-pure": None,
            "--json": None,
        }
        return _argv(command, {"": file}, options)
    if command == "sweep-werner":
        steps = text_of(st.integers(1, 1000)).filter(at_most(1000))
        pair = st.tuples(VECTOR_TEXT, VECTOR_TEXT).map("|".join)
        required = {"--from": xi, "--to": xi, "--steps": steps}
        return _argv(command, required, {"--pair": pair, "--json": None})
    if command == "gen":
        kinds = either(st.sampled_from(list(_GEN_KINDS)), TEXT)
        out = either(st.just(outs[0]), st.sampled_from(outs))
        count = text_of(st.integers(1, 6)).filter(at_most(6))
        options = {"--xi": xi, "--seed": seed, "--k": count}
        return _argv(command, {"--kind": kinds, "--out": out}, options)
    trials = text_of(st.integers(95, 100)).filter(at_most(100))
    return _argv(command, {"--trials": trials}, {"--trials": trials, "--seed": seed})


def cli_outcome(argv: list) -> int:
    """main(argv)'s exit code, after checking that it is 0 to 3, that stderr holds no traceback
    and that nothing warned."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    return code


@pytest.mark.parametrize("command", ["analyze", "detect", "sweep-werner", "gen", "verify"])
def test_the_command_line_exits_0_to_3_on_any_argv(command, cli_paths):
    @BOUNDARY
    @given(argv=cli_argv(command, *cli_paths))
    def check(argv):
        cli_outcome(argv)

    check()
