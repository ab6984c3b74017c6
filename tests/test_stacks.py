"""Stacked kernels: a stack of states gives each state's own result.

Every shape-generic kernel is run once on a stack of 300 random states and
once per state.  Elementwise operations and integer or boolean verdicts must
agree exactly; results that sum products (LAPACK, matmul, einsum) within
1e-15.  A single state keeps its scalar return type, and an empty stack gives
an empty result.
"""

import numpy as np
import pytest

from bicorr import states
from bicorr.correlation import (
    ObservablePair,
    correlation_matrix,
    covariance_direct,
    covariance_via_c,
)
from bicorr.detect import (
    ZeroVector,
    find_zero_correlation_pair,
    ppt_is_separable,
    rank_says_entangled,
    schmidt_rank,
)
from bicorr.linalg import (
    det3,
    directions,
    hermitian_eigenvalues,
    numeric_rank,
    orthogonal_complement_basis,
)
from bicorr.qstate import (
    CheckedState,
    InvalidState,
    NotNormalized,
    as_density_matrix,
    bloch_assemble,
    bloch_decompose,
    density_from_pure,
    observable_from_bloch,
    outcome_table,
    partial_trace_B,
    partial_transpose_b,
    purity,
    validate_pure_state,
)
from bicorr.shotsim import joint_outcome_probabilities

N = 300
RHO = np.stack([states.random_density(s) for s in range(N)])
PSI = np.stack([states.haar_random_pure(s) for s in range(N)])
_rng = np.random.default_rng(7)
X = _rng.standard_normal((N, 3))
X *= (_rng.random(N) / np.linalg.norm(X, axis=1))[:, None]
Y = _rng.standard_normal((N, 3))
Y /= np.linalg.norm(Y, axis=1, keepdims=True)


def _bloch(rho):
    bf = bloch_decompose(rho)
    return np.concatenate([bf.a, bf.b, bf.f.reshape(bf.f.shape[:-2] + (9,))], axis=-1)


def _pair(x, y):
    return ObservablePair(x=x, y=y)


# name -> (kernel of (rho, psi, x, y), exact): exact for elementwise operations
# and integer or boolean results, else within 1e-15.
KERNELS = {
    "CheckedState": (lambda rho, psi, x, y: CheckedState(rho).matrix, True),
    "as_density_matrix": (lambda rho, psi, x, y: as_density_matrix(rho).matrix, True),
    "validate_pure_state": (lambda rho, psi, x, y: validate_pure_state(psi), True),
    "density_from_pure": (lambda rho, psi, x, y: density_from_pure(psi).matrix, True),
    "partial_transpose_b": (lambda rho, psi, x, y: partial_transpose_b(rho), True),
    "schmidt_rank": (lambda rho, psi, x, y: schmidt_rank(psi), True),
    "ppt_is_separable": (lambda rho, psi, x, y: ppt_is_separable(rho), True),
    "numeric_rank": (lambda rho, psi, x, y: numeric_rank(correlation_matrix(rho), 1e-8), True),
    "rank_says_entangled": (
        lambda rho, psi, x, y: rank_says_entangled(density_from_pure(psi)), True
    ),
    "det3": (lambda rho, psi, x, y: det3(correlation_matrix(rho)), True),
    "hermitian_eigenvalues": (lambda rho, psi, x, y: hermitian_eigenvalues(rho), False),
    "purity": (lambda rho, psi, x, y: purity(rho), False),
    "bloch_decompose": (lambda rho, psi, x, y: _bloch(rho), False),
    "bloch_assemble": (lambda rho, psi, x, y: bloch_assemble(bloch_decompose(rho)), False),
    "partial_trace_B": (lambda rho, psi, x, y: partial_trace_B(rho), False),
    "outcome_table": (lambda rho, psi, x, y: outcome_table(rho, x, y), False),
    "correlation_matrix": (lambda rho, psi, x, y: correlation_matrix(rho), False),
    "singular_values": (lambda rho, psi, x, y: CheckedState(rho).singular_values, False),
    "covariance_direct": (lambda rho, psi, x, y: covariance_direct(rho, _pair(x, y)), False),
    "covariance_via_c": (
        lambda rho, psi, x, y: covariance_via_c(correlation_matrix(rho), _pair(x, y)), False
    ),
    "orthogonal_complement_basis": (
        lambda rho, psi, x, y: np.stack(orthogonal_complement_basis(x), axis=-2), False
    ),
    "observable_from_bloch": (lambda rho, psi, x, y: observable_from_bloch(x), False),
    "find_zero_correlation_pair": (
        lambda rho, psi, x, y: find_zero_correlation_pair(rho, y).x, True
    ),
    "joint_outcome_probabilities": (
        lambda rho, psi, x, y: joint_outcome_probabilities(rho, _pair(directions(x), y)), False
    ),
}


@pytest.mark.parametrize("name", KERNELS)
def test_stack_equals_each_state(name):
    kernel, exact = KERNELS[name]
    stacked = np.asarray(kernel(RHO, PSI, X, Y))
    each = np.array([kernel(*args) for args in zip(RHO, PSI, X, Y)])
    assert stacked.shape == each.shape
    if exact:
        assert np.array_equal(stacked, each)
    else:
        np.testing.assert_allclose(stacked, each, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", KERNELS)
def test_empty_stack_gives_empty_results(name):
    kernel, _ = KERNELS[name]
    empty = np.asarray(kernel(RHO[:0], PSI[:0], X[:0], Y[:0]))
    assert empty.shape == (0,) + np.shape(kernel(RHO[0], PSI[0], X[0], Y[0]))


def test_a_state_broadcasts_against_a_stack_of_probes():
    table = outcome_table(RHO[0], X, Y)
    assert np.array_equal(table, [outcome_table(RHO[0], x, y) for x, y in zip(X, Y)])


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: ppt_is_separable(RHO[0]), bool),
        (lambda: schmidt_rank(PSI[0]), int),
        (lambda: covariance_direct(RHO[0], _pair(X[0], Y[0])), float),
        (lambda: covariance_via_c(correlation_matrix(RHO[0]), _pair(X[0], Y[0])), float),
        (lambda: rank_says_entangled(RHO[0]), bool),
        (lambda: numeric_rank(correlation_matrix(RHO[0]), 1e-8), int),
        (lambda: det3(correlation_matrix(RHO[0])), float),
        (lambda: purity(RHO[0]), float),
    ],
    ids=[
        "ppt_is_separable", "schmidt_rank", "covariance_direct", "covariance_via_c",
        "rank_says_entangled", "numeric_rank", "det3", "purity",
    ],
)
def test_one_state_keeps_its_scalar_type(call, kind):
    assert type(call()) is kind


def test_zero_pair_of_a_stack_takes_e1_exactly_where_c_y_vanishes():
    # werner(0) and a product state have c = 0; the singlet has c = -I.
    rho = np.stack([
        states.werner(0.0),
        density_from_pure(states.random_product_pure(5)).matrix,
        density_from_pure(states.bell_state("psi-")).matrix,
    ])
    z = np.array([0.0, 0.0, 1.0])
    pair = find_zero_correlation_pair(rho, z)
    vanishes = np.linalg.norm(correlation_matrix(rho) @ z, axis=-1) < 1e-10
    assert vanishes.tolist() == [True, True, False]
    assert (pair.x == [1.0, 0.0, 0.0]).all(axis=-1).tolist() == vanishes.tolist()
    assert np.abs(covariance_direct(rho, pair)).max() < 1e-10


def test_zero_row_in_a_stack_of_y_is_rejected():
    y = Y.copy()
    y[17] = 0.0
    with pytest.raises(ZeroVector, match=r"^y at stack index 17 must be non-zero"):
        find_zero_correlation_pair(RHO, y)


def test_non_hermitian_state_in_a_stack_is_named_by_index():
    rho = RHO.copy()
    rho[137, 0, 1] += 0.01
    with pytest.raises(InvalidState, match=r"density matrix at stack index 137 is not Hermitian"):
        CheckedState(rho)


def test_nested_stack_names_both_indices():
    rho = RHO.reshape(30, 10, 4, 4).copy()
    rho[4, 7] *= 2.0
    with pytest.raises(InvalidState, match=r"at stack index 4, 7 trace differs from 1"):
        CheckedState(rho)


def test_unnormalized_pure_state_in_a_stack_is_named_by_index():
    psi = PSI.copy()
    psi[42] *= 0.5
    with pytest.raises(NotNormalized, match=r"^amplitude norm\^2 at stack index 42 differs from"):
        validate_pure_state(psi)


def test_one_state_error_names_no_index():
    rho = RHO[0].copy()
    rho[0, 1] += 0.01
    with pytest.raises(InvalidState, match=r"^density matrix is not Hermitian \(deviation"):
        CheckedState(rho)
