"""Tests for state validation, Pauli expansion, and local observables."""

import copy
import dataclasses
import pickle
import re
import sys
from collections import Counter

import numpy as np
import pytest

from bicorr import cli, correlation, linalg, qstate, states, verify
from bicorr.correlation import CorrMatrix, ObservablePair, covariance_direct
from bicorr.detect import (
    DEFAULT_XS,
    DEFAULT_Y,
    Probe,
    ProtocolTrace,
    Verdict,
    binary_protocol,
    exact_protocol,
    find_zero_correlation_pair,
    ppt_is_separable,
)
from bicorr.qstate import (
    BlochForm,
    BlochOutOfBall,
    CheckedState,
    InvalidState,
    NotNormalized,
    NotPositive,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _require,
    as_density_matrix,
    bloch_assemble,
    bloch_decompose,
    check_bloch_vector,
    density_from_pure,
    observable_from_bloch,
    outcome_table,
    partial_trace_B,
    partial_transpose_b,
    purity,
    validate_pure_state,
)
from bicorr.shotsim import ShotConfig, statistical_binary_protocol
from bicorr.states import StateSpec
from bicorr.verify import check_protocol_soundness, check_two_probe_insufficiency

SINGLET_RHO = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)


class TestValidation:
    def test_accepts_normalized_state(self):
        psi = validate_pure_state([1, 0, 0, 0])
        assert psi.dtype == complex

    def test_rejects_unnormalized_state(self):
        with pytest.raises(NotNormalized):
            validate_pure_state([1, 1, 0, 0])

    def test_rejects_non_unit_trace(self):
        with pytest.raises(InvalidState, match="trace"):
            as_density_matrix(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 0.01
        with pytest.raises(InvalidState, match="Hermitian"):
            as_density_matrix(rho)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(InvalidState, match="positive"):
            as_density_matrix(rho)

    def test_rejects_three_amplitudes(self):
        with pytest.raises(InvalidState, match=r"^pure state needs 4 amplitudes, got 3$"):
            validate_pure_state([1, 0, 0])

    def test_rejects_a_3x3_matrix(self):
        with pytest.raises(InvalidState, match=r"^density matrix must be 4x4, got shape \(3, 3\)$"):
            CheckedState(np.eye(3) / 3)

    def test_rejects_a_bloch_vector_of_two_components(self):
        with pytest.raises(ValueError, match=r"^x needs 3 components, got 2$"):
            check_bloch_vector([0.6, 0.8], "x")


def _off_hermitian(d):
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = d
    return rho


# Each structural cut of a state's input sits at 1e-9: a deviation d = 5e-10 is accepted and
# d = 2e-9 refused, so a tolerance read ten times larger or smaller fails one of the two.
STRUCTURAL_CUTS = [
    (
        validate_pure_state,
        lambda d: states.bell_state("psi-") * np.sqrt(1 - d),
        NotNormalized,
        "amplitude norm^2 differs from 1 by 2.000e-09",
    ),
    (
        CheckedState,
        lambda d: np.eye(4, dtype=complex) / 4 * (1 + d),
        InvalidState,
        "density matrix trace differs from 1 by 2.000e-09",
    ),
    (
        CheckedState,
        _off_hermitian,
        InvalidState,
        "density matrix is not Hermitian (deviation 2.000e-09)",
    ),
    (
        as_density_matrix,
        lambda d: np.diag([0.5 + d, 0.5, 0.0, -d]).astype(complex),
        InvalidState,
        "density matrix is not positive semidefinite (min eigenvalue -2.000e-09)",
    ),
]


@pytest.mark.parametrize(
    "check, build, error, message", STRUCTURAL_CUTS, ids=["norm", "trace", "Hermitian", "PSD"]
)
def test_a_structural_cut_accepts_5e_10_and_refuses_2e_9(check, build, error, message):
    check(build(5e-10))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        check(build(2e-9))


def _long(d):
    """A vector whose first component is 1 + d."""
    return np.array([1 + d, 0.0, 0.0])


def _tilted(d):
    """A vector with both non-zero components below 1 and a length of 1 + d, up to round-off."""
    c = (1 + d) / np.sqrt(2)
    return np.array([c, c, 0.0])


def _probe_set(v):
    return binary_protocol(SINGLET_RHO, xs=np.stack([np.eye(3)[2], v, np.eye(3)[1]]))


# BALL_TOL = 1e-12 bounds an observable's Bloch vector, a component first, then its length: an
# excess d = 5e-13 is accepted and 2e-12 refused, in a pair and among the protocol's probes.
BALL_CUTS = [
    (lambda v: ObservablePair(x=v, y=[0, 0, 1]), _long, "x component {!r} exceeds 1"),
    (lambda v: ObservablePair(x=[0, 0, 1], y=v), _tilted, "y norm {!r} exceeds 1"),
    (lambda v: binary_protocol(SINGLET_RHO, y=v), _long, "y component {!r} exceeds 1"),
    (lambda v: binary_protocol(SINGLET_RHO, y=v), _tilted, "y norm {!r} exceeds 1"),
    (_probe_set, _long, "probe set at stack index 1 component {!r} exceeds 1"),
    (_probe_set, _tilted, "x at stack index 1 norm {!r} exceeds 1"),
]


@pytest.mark.parametrize(
    "call, build, message",
    BALL_CUTS,
    ids=[
        "pair component", "pair length", "probe y component", "probe y length",
        "probe x component", "probe x length",
    ],
)
def test_a_ball_cut_accepts_5e_13_and_refuses_2e_12(call, build, message):
    call(build(5e-13))
    bad = build(2e-12)
    worst = float(linalg.norms(bad)) if build is _tilted else 1 + 2e-12
    with pytest.raises(BlochOutOfBall, match=f"^{re.escape(message.format(worst))}$"):
        call(bad)


def _isotropic_form(d):
    """A Bloch form with a = b = 0 and f = (1 + 4d)/3 I: its least eigenvalue is -d."""
    return BlochForm(a=np.zeros(3), b=np.zeros(3), f=(1 + 4 * d) / 3 * np.eye(3))


# PSD_TOL = 1e-9 bounds an assembled form's least eigenvalue, -5e-10 accepted and -2e-9 refused.
RESIDUE_CUTS = [
    (
        bloch_assemble,
        _isotropic_form,
        (5e-10, 2e-9),
        NotPositive,
        "assembled matrix has eigenvalue -2.000e-09; not a state",
    ),
]


@pytest.mark.parametrize(
    "check, build, deviations, error, message", RESIDUE_CUTS, ids=["assembled form"]
)
def test_a_residue_cut_is_straddled_within_a_factor_of_4(check, build, deviations, error, message):
    accepted, refused = deviations
    check(build(accepted))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        check(build(refused))


def _bloch_values(rho) -> np.ndarray:
    bf = bloch_decompose(rho)
    return np.concatenate([bf.a, bf.b, bf.f.ravel()])


# A state may be off Hermitian by HERMITIAN_TOL; every route reads its Hermitian part
# H = (rho + rho^dagger)/2.  rho_01 = d leaves an imaginary part of d in the Pauli traces and of
# d/4 in the direct covariance of z and y, each read as H's value, to the bit.
@pytest.mark.parametrize(
    "route",
    [
        _bloch_values,
        lambda rho: covariance_direct(rho, ObservablePair(x=[0, 0, 1], y=[0, 1, 0])),
    ],
    ids=["Pauli traces", "direct covariance"],
)
@pytest.mark.parametrize("d", [2e-10, 8e-10])
def test_an_off_hermitian_state_reads_as_its_hermitian_part(route, d):
    rho = _off_hermitian(d)
    hermitian = (rho + rho.conj().T) / 2
    assert np.asarray(route(rho)).tobytes() == np.asarray(route(hermitian)).tobytes()


def _form(a=np.zeros(3), f=np.zeros((3, 3))):
    return BlochForm(a=a, b=np.zeros(3), f=f)


# NORM_TOL = 1e-9 bounds every amplitude, density-matrix entry and Bloch-form entry, and a Bloch
# form's local vectors, at 1 + 1e-9.  An amplitude can only be straddled from 2.5e-10 up (its
# norm^2 is 1 + 2d, which the norm^2 cut refuses from 5e-10 on); at 1 + 2e-9 the magnitude bound
# speaks first.  The matrix diag(1 + d, -d, 0, 0) has unit trace, f_zz = 1 + d leaves a least
# eigenvalue of -d/4 and a local vector of length 1 + d one of -d/4, within PSD_TOL.
ENTRY_CUTS = [
    (
        validate_pure_state,
        lambda d: np.array([1 + d, 0, 0, 0]),
        (2.5e-10, 2e-9),
        NotNormalized,
        "amplitude magnitude 1.000000002 exceeds 1",
    ),
    (
        CheckedState,
        lambda d: np.diag([1 + d, -d, 0.0, 0.0]).astype(complex),
        (5e-10, 2e-9),
        InvalidState,
        "density matrix entry magnitude 1.000000002 exceeds 1",
    ),
    (
        bloch_assemble,
        lambda d: _form(f=np.diag([0.0, 0.0, 1 + d])),
        (5e-10, 2e-9),
        InvalidState,
        "Bloch form entry magnitude 1.000000002 exceeds 1",
    ),
    (
        bloch_assemble,
        lambda d: _form(a=_tilted(d)),
        (5e-10, 2e-9),
        InvalidState,
        f"local Bloch vector of length {float(linalg.norms(_tilted(2e-9)))!r} is outside the "
        "unit ball",
    ),
]


@pytest.mark.parametrize(
    "check, build, deviations, error, message",
    ENTRY_CUTS,
    ids=["amplitude", "matrix entry", "Bloch form entry", "local Bloch vector"],
)
def test_an_entry_bound_is_straddled_within_a_factor_of_4(check, build, deviations, error, message):
    accepted, refused = deviations
    check(build(accepted))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        check(build(refused))


def _bloch_values(rho) -> np.ndarray:
    bf = bloch_decompose(rho)
    return np.concatenate([bf.a, bf.b, bf.f.ravel()])


# A state may be off Hermitian by HERMITIAN_TOL; every route reads its Hermitian part
# H = (rho + rho^dagger)/2.  rho_01 = d leaves an imaginary part of d in the Pauli traces and of
# d/4 in the direct covariance of z and y, each read as H's value, to the bit.
@pytest.mark.parametrize(
    "route",
    [
        _bloch_values,
        lambda rho: covariance_direct(rho, ObservablePair(x=[0, 0, 1], y=[0, 1, 0])),
    ],
    ids=["Pauli traces", "direct covariance"],
)
@pytest.mark.parametrize("d", [2e-10, 8e-10])
def test_an_off_hermitian_state_reads_as_its_hermitian_part(route, d):
    rho = _off_hermitian(d)
    hermitian = (rho + rho.conj().T) / 2
    assert np.asarray(route(rho)).tobytes() == np.asarray(route(hermitian)).tobytes()


def _huge_off_diagonal():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 1], rho[1, 0] = 1e308, -1e308
    return rho


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "check, value, error",
    [
        (validate_pure_state, np.array([1e200, 0, 0, 0]), NotNormalized),
        (as_density_matrix, _huge_off_diagonal(), InvalidState),
        (as_density_matrix, np.diag([1e308, 1e308, 0, 0]).astype(complex), InvalidState),
        (validate_pure_state, np.array([1.7e308 + 1.7e308j, 0, 0, 0]), NotNormalized),
        (as_density_matrix, np.diag([1.7e308 + 1.7e308j, 0, 0, 0]), InvalidState),
        (bloch_assemble, BlochForm(a=(1e200, 0, 0), b=(0, 0, 0), f=np.eye(3)), InvalidState),
    ],
    ids=[
        "amplitude", "off-diagonal", "diagonal", "complex amplitude", "complex entry",
        "Bloch vector",
    ],
)
def test_huge_entry_is_rejected_before_it_overflows(check, value, error):
    with pytest.raises(error, match="exceeds 1"):
        check(value)


class TestRequire:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_deviation_fails(self, bad):
        with pytest.raises(ValueError, match=f"^worst {bad!r} at stack index 1$"):
            _require(np.array([0.0, bad, 0.5]), 1.0, ValueError, "worst {worst!r}{at}")

    @pytest.mark.parametrize("shape", [(0,), (0, 4), (3, 0, 4, 4)])
    def test_empty_stack_passes(self, shape):
        assert _require(np.zeros(shape), 0.0, ValueError, "{at}", core=len(shape) - 1) is None

    def test_nested_stack_names_both_indices_and_the_worst_deviation(self):
        deviation = np.zeros((3, 5, 4))
        deviation[2, 3, 1], deviation[2, 4, 0] = 2.0, 7.0
        with pytest.raises(NotPositive, match=r"^rho at stack index 2, 3: worst 7\.0$"):
            _require(deviation, 1.0, NotPositive, "rho{at}: worst {worst!r}", core=1)

    def test_tolerance_is_inclusive(self):
        assert _require(np.array([0.0, 1.0]), 1.0, ValueError, "{at}") is None

    @pytest.mark.parametrize("scalar", [np.float64, np.array], ids=["float64", "0-d array"])
    @pytest.mark.parametrize(
        "value, passes",
        [
            (0.0, True), (1e-9, True), (np.nextafter(1e-9, np.inf), False),
            (np.nan, False), (np.inf, False), (-np.inf, True),
        ],
        ids=["zero", "tol", "next after tol", "nan", "inf", "-inf"],
    )
    def test_one_state_decides_as_a_one_row_stack(self, scalar, value, passes):
        # One state's deviation is compared as it is, with no reduction: it passes or fails as the
        # one-row stack does, and its message is the stack's without the index.
        for deviation, at in ((np.array([value]), " at stack index 0"), (scalar(value), "")):
            if passes:
                assert _require(deviation, 1e-9, ValueError, "worst {worst!r}{at}") is None
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(f'worst {float(value)!r}{at}')}$"):
                _require(deviation, 1e-9, ValueError, "worst {worst!r}{at}")


class TestDensityFromPure:
    def test_basis_state(self):
        rho = density_from_pure([1, 0, 0, 0]).matrix
        np.testing.assert_allclose(rho, np.diag([1, 0, 0, 0]).astype(complex))

    def test_singlet(self):
        rho = density_from_pure(states.bell_state("psi-")).matrix
        np.testing.assert_allclose(rho, SINGLET_RHO, atol=1e-15)

    def test_chen(self):
        # Outer product of (1, 1, 0, 1)/sqrt(3): value 1/3 wherever both
        # indices hit {0, 1, 3}, zero in row/column 2.
        rho = density_from_pure(states.chen_state()).matrix
        expected = np.zeros((4, 4))
        hot = [0, 1, 3]
        for i in hot:
            for j in hot:
                expected[i, j] = 1 / 3
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_output_is_valid_density_matrix(self):
        for seed in range(50):
            as_density_matrix(density_from_pure(states.haar_random_pure(seed)))

    def test_returns_the_checked_state_that_keeps_its_amplitudes(self):
        psi = states.chen_state().astype(complex)
        rho = density_from_pure(psi)
        assert isinstance(rho, CheckedState) and rho.pure is True
        assert rho.amplitudes.tobytes() == psi.tobytes() and psi.flags.writeable  # a copy
        for array in (rho.amplitudes, rho.matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert CheckedState(rho.matrix).amplitudes is None
        with pytest.raises(TypeError):
            CheckedState(rho.matrix, amplitudes=psi)  # no caller can claim purity
        assert not hasattr(CheckedState, "_pure")

    def test_a_stack_is_pure_as_built_or_read_state_by_state(self):
        rho = density_from_pure(states.haar_random_pure(range(3)))
        assert rho.pure is True
        mixed = np.eye(4, dtype=complex) / 4
        assert CheckedState(np.stack([rho.matrix[0], mixed])).pure.tolist() == [True, False]


class TestBlochDecompose:
    def test_singlet(self):
        bf = bloch_decompose(SINGLET_RHO)
        np.testing.assert_allclose(bf.a, 0.0, atol=1e-12)
        np.testing.assert_allclose(bf.b, 0.0, atol=1e-12)
        np.testing.assert_allclose(bf.f, -np.eye(3), atol=1e-12)

    def test_chen(self):
        bf = bloch_decompose(density_from_pure(states.chen_state()))
        np.testing.assert_allclose(bf.a, np.array([2, 0, 1]) / 3, atol=1e-12)
        np.testing.assert_allclose(bf.b, np.array([2, 0, -1]) / 3, atol=1e-12)
        np.testing.assert_allclose(
            bf.f, np.array([[2, 0, -2], [0, -2, 0], [2, 0, 1]]) / 3, atol=1e-12
        )

    def test_werner(self):
        for xi in (0.0, 0.2, 1 / 3, 0.7, 1.0):
            bf = bloch_decompose(states.werner(xi))
            np.testing.assert_allclose(bf.a, 0.0, atol=1e-12)
            np.testing.assert_allclose(bf.b, 0.0, atol=1e-12)
            np.testing.assert_allclose(bf.f, -xi * np.eye(3), atol=1e-12)

    def test_matches_explicit_trace_oracle(self):
        paulis = [SIGMA_X, SIGMA_Y, SIGMA_Z]
        for seed in range(30):
            rho = states.random_density(seed)
            bf = bloch_decompose(rho)
            for i, si in enumerate(paulis):
                assert abs(bf.a[i] - np.trace(rho @ np.kron(si, np.eye(2))).real) < 1e-12
                assert abs(bf.b[i] - np.trace(rho @ np.kron(np.eye(2), si)).real) < 1e-12
                for j, sj in enumerate(paulis):
                    assert abs(bf.f[i, j] - np.trace(rho @ np.kron(si, sj)).real) < 1e-12

    def test_the_pauli_table_has_the_bits_of_sixteen_krons(self):
        # The reference: one np.kron per product.  An np.einsum table differs from it in signed
        # zeros, which no comparison of values sees, and the pinned outputs do not show either.
        sigmas = np.concatenate([np.eye(2, dtype=complex)[None], qstate.PAULIS])
        krons = np.stack([np.kron(sm, sn) for sm in sigmas for sn in sigmas])
        reference = krons.transpose(0, 2, 1).reshape(16, 16).T
        assert qstate._PAULI_TABLE.shape == (16, 16) and qstate._PAULI_TABLE.flags.c_contiguous
        assert qstate._PAULI_TABLE.tobytes() == reference.tobytes()


class TestBlochAssemble:
    def test_singlet_from_parameters(self):
        bf = BlochForm(a=np.zeros(3), b=np.zeros(3), f=-np.eye(3))
        np.testing.assert_allclose(bloch_assemble(bf), SINGLET_RHO, atol=1e-15)

    def test_maximally_mixed(self):
        bf = BlochForm(a=np.zeros(3), b=np.zeros(3), f=np.zeros((3, 3)))
        np.testing.assert_allclose(bloch_assemble(bf), np.eye(4) / 4, atol=1e-15)

    def test_product_state_parameters(self):
        z = np.array([0.0, 0.0, 1.0])
        bf = BlochForm(a=z, b=z, f=np.outer(z, z))
        np.testing.assert_allclose(bloch_assemble(bf), np.diag([1, 0, 0, 0]), atol=1e-15)

    def test_positive_identity_tensor_is_rejected(self):
        # f = +I gives eigenvalue -1/2 on the antisymmetric component.
        bf = BlochForm(a=np.zeros(3), b=np.zeros(3), f=np.eye(3))
        with pytest.raises(NotPositive):
            bloch_assemble(bf)

    def test_form_outside_the_ball_is_rejected_where_it_is_assembled(self):
        # Hermitian, unit trace and no entry above 1, but a = (0, 0, 3): not a state.
        # bloch_decompose reads it as it is; bloch_assemble is where a form is checked.
        bf = bloch_decompose(np.diag([1.0, 1.0, -0.5, -0.5]))
        np.testing.assert_allclose(bf.a, [0.0, 0.0, 3.0], atol=1e-15)
        with pytest.raises(InvalidState, match=r"^Bloch form entry magnitude 3\.0 exceeds 1"):
            bloch_assemble(bf)

    @pytest.mark.parametrize(
        "a, f, message",
        [
            ([np.nan, 0.0, 0.0], np.zeros((3, 3)), r"entry magnitude nan exceeds 1"),
            ([0.0, 0.0, 0.0], 1.5 * np.eye(3), r"entry magnitude 1\.5 exceeds 1"),
            ([0.0, 0.0], np.zeros((3, 3)), "3-vectors"),
            ([0.8, 0.8, 0.0], np.zeros((3, 3)), r"length 1\.131\d* is outside the unit ball"),
        ],
        ids=["non-finite", "tensor entry above 1", "wrong shape", "local vector outside the ball"],
    )
    def test_malformed_form_is_rejected(self, a, f, message):
        with pytest.raises(InvalidState, match=message):
            bloch_assemble(BlochForm(a=np.array(a), b=np.zeros(3), f=f))

    def test_form_parts_broadcast_against_each_other(self):
        # a is stacked deeper than b and f: one state per row of a.
        z = np.array([0.0, 0.0, 1.0])
        a = np.array([np.zeros(3), z, -z, z / 2, -z / 3])
        rho = bloch_assemble(BlochForm(a=a, b=np.zeros(3), f=np.zeros((3, 3))))
        each = [bloch_assemble(BlochForm(a=row, b=np.zeros(3), f=np.zeros((3, 3)))) for row in a]
        assert rho.shape == (5, 4, 4)
        np.testing.assert_allclose(rho, each, rtol=0, atol=1e-15)

    def test_form_stacks_that_do_not_broadcast_are_rejected(self):
        bf = BlochForm(a=np.zeros((5, 3)), b=np.zeros(3), f=np.zeros((4, 3, 3)))
        message = r"^Bloch form stacks \(5, 3\), \(3,\) and \(4, 3, 3\) do not broadcast$"
        with pytest.raises(InvalidState, match=message):
            bloch_assemble(bf)


class TestPartialTrace:
    def test_singlet_marginals_are_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace_B(SINGLET_RHO), np.eye(2) / 2, atol=1e-15)

    def test_product_state_factors(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b /= np.linalg.norm(b)
            rho_a = np.outer(a, a.conj())
            rho_b = np.outer(b, b.conj())
            rho = np.kron(rho_a, rho_b)
            np.testing.assert_allclose(partial_trace_B(rho), rho_a, atol=1e-12)

    def test_chen_reduced_state_of_a(self):
        rho_a = partial_trace_B(density_from_pure(states.chen_state()))
        a = np.array([2, 0, 1]) / 3
        expected = 0.5 * (np.eye(2) + a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z)
        np.testing.assert_allclose(rho_a, expected, atol=1e-12)


class TestObservables:
    def test_zero_vector_gives_half_identity(self):
        np.testing.assert_allclose(observable_from_bloch(np.zeros(3)), np.eye(2) / 2)

    def test_z_axis_gives_projector(self):
        np.testing.assert_allclose(
            observable_from_bloch([0, 0, 1]), np.diag([1.0, 0.0]), atol=1e-15
        )

    def test_x_axis(self):
        np.testing.assert_allclose(
            observable_from_bloch([1, 0, 0]), 0.5 * np.ones((2, 2)), atol=1e-15
        )

    def test_spectrum_stays_in_unit_interval(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            x = rng.standard_normal(3)
            x *= rng.random() / np.linalg.norm(x)
            w = np.linalg.eigvalsh(observable_from_bloch(x))
            assert w[0] > -1e-12 and w[1] < 1 + 1e-12
            np.testing.assert_allclose(
                sorted(w), sorted([(1 - np.linalg.norm(x)) / 2, (1 + np.linalg.norm(x)) / 2]),
                atol=1e-12,
            )

    def test_rejects_vector_outside_ball(self):
        with pytest.raises(BlochOutOfBall):
            observable_from_bloch([1.0, 1.0, 0.0])

    def test_outcome_table_matches_kronecker_traces(self):
        rng = np.random.default_rng(25)
        for seed in range(30):
            rho = states.random_density(seed)
            x, y = rng.standard_normal((2, 3))
            x *= rng.random() / np.linalg.norm(x)
            y *= rng.random() / np.linalg.norm(y)
            q, r = observable_from_bloch(x), observable_from_bloch(y)
            table = outcome_table(rho, x, y)
            for s, q_s in enumerate((np.eye(2) - q, q)):
                for t, r_t in enumerate((np.eye(2) - r, r)):
                    assert abs(table[s, t] - np.trace(rho @ np.kron(q_s, r_t))) < 1e-12


def test_purity_separates_pure_from_mixed():
    assert abs(purity(SINGLET_RHO) - 1) < 1e-12
    assert abs(purity(np.eye(4, dtype=complex) / 4) - 0.25) < 1e-12


Z = np.array([0.0, 0.0, 1.0])
PRODUCT_RHO = density_from_pure(states.random_product_pure(3)).matrix


def _count_calls(monkeypatch, *functions):
    """Calls of each function by name, counted wherever a bicorr module holds the function."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items() if name.startswith("bicorr")]
    for original in functions:

        def counted(*args, _name=original.__name__, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.fixture()
def check_counts(monkeypatch):
    """Calls of each qstate check, counted wherever a bicorr module holds the check."""
    checks = ("_check_structure", "validate_pure_state", "check_bloch_vector", "check_bloch_components")
    return _count_calls(monkeypatch, *(getattr(qstate, name) for name in checks))


# A mixed and a pure state, each analyzed from its document.
REPORT_SPECS = [
    StateSpec(as_density_matrix(states.werner(0.4))),
    StateSpec(density_from_pure(states.chen_state())),
]


@pytest.mark.parametrize("spec", REPORT_SPECS, ids=["mixed", "pure"])
def test_analysis_report_checks_each_input_once(spec, check_counts):
    document = states.dumps_state(spec)
    cli.build_analysis_report(states.loads_state(document))
    if spec.kind == "mixed":
        assert check_counts["_check_structure"] == 1
    else:
        assert check_counts["validate_pure_state"] == 1
        assert check_counts["_check_structure"] == 0  # the amplitudes own a pure state's check
    assert check_counts["check_bloch_vector"] <= 4


@pytest.mark.parametrize("spec", REPORT_SPECS, ids=["mixed", "pure"])
def test_analysis_report_decomposes_its_state_once(spec, monkeypatch):
    # The report's form and C, the rank verdict and the protocol all read the checked state's.
    counts = _count_calls(monkeypatch, qstate.bloch_decompose, correlation.correlation_matrix)
    cli.build_analysis_report(states.loads_state(states.dumps_state(spec)))
    assert counts == {"bloch_decompose": 1, "correlation_matrix": 1}


@pytest.mark.parametrize(
    "reader",
    [binary_protocol, exact_protocol, lambda rho: find_zero_correlation_pair(rho, Z)],
    ids=["binary_protocol", "exact_protocol", "find_zero_correlation_pair"],
)
def test_a_reader_of_c_takes_the_one_its_checked_state_holds(reader, monkeypatch):
    rho = CheckedState(PRODUCT_RHO)
    cm = rho.cm
    counts = _count_calls(monkeypatch, qstate.bloch_decompose, correlation.correlation_matrix)
    reader(rho)
    assert counts == {} and rho.cm is cm
    reader(PRODUCT_RHO)  # a raw array is checked, decomposed and correlated once
    assert counts == {"bloch_decompose": 1, "correlation_matrix": 1}


def _shot_protocol(rho, *probes):
    return statistical_binary_protocol(rho, *probes, cfg=ShotConfig(shots=10_000, seed=3))


# Equal copies of the default probe set, which take the checks that the defaults took at import.
DEFAULT_COPIES = (DEFAULT_Y.copy(), DEFAULT_XS.copy())


@pytest.mark.parametrize("protocol", [binary_protocol, _shot_protocol], ids=["exact", "shots"])
def test_protocol_checks_rho_and_each_probe_vector_once(protocol, check_counts):
    _, trace = protocol(PRODUCT_RHO)
    assert trace.measurements_used == 3
    assert check_counts["_check_structure"] == 1
    assert check_counts["check_bloch_vector"] <= 4
    assert check_counts["check_bloch_components"] == 0  # the default set was checked at import
    check_counts.clear()
    protocol(PRODUCT_RHO, *DEFAULT_COPIES)
    assert check_counts["check_bloch_components"] == 0  # one pass bounds y and the set together
    y, xs = DEFAULT_COPIES[0].copy(), DEFAULT_COPIES[1] * 2.0
    with pytest.raises(BlochOutOfBall, match="^probe set at stack index 0 component 2.0"):
        protocol(PRODUCT_RHO, y, xs)
    assert check_counts["check_bloch_components"] == 2  # the ordered checks: y, then the set


@pytest.mark.parametrize(
    "protocol, covariance_calls",
    [(binary_protocol, 1), (_shot_protocol, 0)],
    ids=["exact", "shots"],
)
def test_protocol_takes_each_direction_once(protocol, covariance_calls, monkeypatch):
    counts = _count_calls(monkeypatch, linalg.norms, correlation.covariance_via_c)
    _, trace = protocol(PRODUCT_RHO)
    assert trace.measurements_used == 3
    assert counts["norms"] == 0  # the default set's directions were taken at import
    assert counts["covariance_via_c"] == covariance_calls
    counts.clear()
    protocol(PRODUCT_RHO, *DEFAULT_COPIES)
    assert counts["norms"] == 1  # the lengths of y and the probe set, taken together once
    assert counts["covariance_via_c"] == covariance_calls


def _non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.01
    return rho


@pytest.mark.parametrize(
    "operation",
    [
        purity,
        bloch_decompose,
        partial_trace_B,
        partial_transpose_b,
        lambda rho: outcome_table(rho, Z, Z),
        ppt_is_separable,
        lambda rho: covariance_direct(rho, ObservablePair(x=Z, y=Z)),
        binary_protocol,
        statistical_binary_protocol,
    ],
    ids=[
        "purity", "bloch_decompose", "partial_trace_B", "partial_transpose_b", "outcome_table",
        "ppt_is_separable", "covariance_direct", "binary_protocol", "statistical_binary_protocol",
    ],
)
def test_state_operations_check_a_raw_array(operation):
    with pytest.raises(InvalidState, match="Hermitian"):
        operation(_non_hermitian())


def test_checked_state_is_a_read_only_copy():
    rho = SINGLET_RHO.copy()
    state = CheckedState(rho)
    rho[1, 1] = 0.0
    assert state.matrix[1, 1] == 0.5 and not state.matrix.flags.writeable


def test_a_checked_state_is_neither_indexed_nor_iterated():
    # A checked state is one value: one 4x4 state must not iterate as an empty stack of rows.
    for matrix in (SINGLET_RHO, np.stack([states.werner(0.2), SINGLET_RHO])):
        state = CheckedState(matrix)
        with pytest.raises(TypeError):
            state[0]
        with pytest.raises(TypeError):
            iter(state)


RECORDS = [
    (lambda: CheckedState(SINGLET_RHO), "CheckedState(matrix={0.matrix!r})"),
    (lambda: density_from_pure([0, 1, 0, 0]), "CheckedState(matrix={0.matrix!r})"),
    (lambda: BlochForm(1, 2.0, None), "BlochForm(a=1, b=2.0, f=None)"),
    (lambda: ObservablePair(x=[1.0, 0, 0], y=[0, 0, 1]), "ObservablePair(x={0.x!r}, y={0.y!r})"),
    (lambda: CorrMatrix(c=0.5), "CorrMatrix(c=0.5)"),
    (lambda: Verdict("Separable", "PPTOracle"), "Verdict(label='Separable', basis='PPTOracle')"),
    (lambda: Probe(x=None, covariance=0.0, is_zero=True), "Probe(x=None, covariance=0.0, is_zero=True)"),
    (lambda: ProtocolTrace(y=1, probes=()), "ProtocolTrace(y=1, probes=())"),
    (
        lambda: StateSpec(density_from_pure([0, 1, 0, 0]), "l"),
        "StateSpec(state=CheckedState(matrix={0.state.matrix!r}), label='l')",
    ),
]


@pytest.mark.parametrize("build, text", RECORDS, ids=[
    "CheckedState", "pure CheckedState", "BlochForm", "ObservablePair", "CorrMatrix", "Verdict",
    "Probe", "ProtocolTrace", "StateSpec",
])
def test_a_record_is_frozen_and_keeps_its_repr_through_copies(build, text):
    record = build()
    assert repr(record) == text.format(record)
    field = type(record)._fields[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, 0)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.extra = 0
    for again in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record) and repr(again) == repr(record)
        assert (again == record) is isinstance(record, Verdict)  # only a Verdict is a value
    if isinstance(record, CheckedState):
        assert pickle.loads(pickle.dumps(record)).pure is record.pure


def test_a_verdict_compares_and_hashes_by_its_fields():
    verdict = Verdict("Entangled", "BinaryProtocol")
    assert verdict == Verdict(label="Entangled", basis="BinaryProtocol")
    assert hash(verdict) == hash(("Entangled", "BinaryProtocol"))
    assert verdict != Verdict("Entangled", "RankDichotomy")
    assert verdict != ("Entangled", "BinaryProtocol")


def test_protocol_soundness_checks_each_block_once(check_counts):
    passed, _ = check_protocol_soundness(100, 0)
    # A pure block is checked once, by its amplitudes; |psi><psi| is not structure-checked again.
    assert passed and check_counts["validate_pure_state"] == 1
    assert check_counts["_check_structure"] == 0


def test_two_probe_insufficiency_checks_each_block_once(check_counts, monkeypatch):
    # Row 3 of the first block reads separable, so a second block of one seed is drawn; the
    # covariance is taken on the whole block, and row 3's nan is not read as a leak.
    entangled, covariance = verify.rank_says_entangled, verify.covariance_direct

    def all_but_row_3(cm):
        says = np.array(entangled(cm))
        says[3:4] = False
        return says

    def nan_on_row_3(rho, pair):
        c = covariance(rho, pair)
        c[3:4] = np.nan
        return c

    monkeypatch.setattr(verify, "rank_says_entangled", all_but_row_3)
    monkeypatch.setattr(verify, "covariance_direct", nan_on_row_3)
    assert check_two_probe_insufficiency(200, 0) == (
        True, "200 entangled states admit two independent all-zero probes"
    )
    assert check_counts["validate_pure_state"] == 2 and check_counts["_check_structure"] == 0
