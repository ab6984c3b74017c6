"""Tests for state validation, Pauli expansion, and local observables."""

import numpy as np
import pytest

from bicorr import states
from bicorr.qstate import (
    BlochForm,
    BlochOutOfBall,
    InvalidState,
    NotNormalized,
    NotPositive,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_density_matrix,
    bloch_assemble,
    bloch_decompose,
    density_from_pure,
    observable_from_bloch,
    outcome_table,
    partial_trace_B,
    purity,
    validate_pure_state,
)

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
    ],
    ids=["amplitude", "off-diagonal", "diagonal"],
)
def test_huge_entry_is_rejected_before_it_overflows(check, value, error):
    with pytest.raises(error, match="exceeds 1"):
        check(value)


class TestDensityFromPure:
    def test_basis_state(self):
        rho = density_from_pure([1, 0, 0, 0])
        np.testing.assert_allclose(rho, np.diag([1, 0, 0, 0]).astype(complex))

    def test_singlet(self):
        rho = density_from_pure(states.bell_state("psi-"))
        np.testing.assert_allclose(rho, SINGLET_RHO, atol=1e-15)

    def test_chen(self):
        # Outer product of (1, 1, 0, 1)/sqrt(3): value 1/3 wherever both
        # indices hit {0, 1, 3}, zero in row/column 2.
        rho = density_from_pure(states.chen_state())
        expected = np.zeros((4, 4))
        hot = [0, 1, 3]
        for i in hot:
            for j in hot:
                expected[i, j] = 1 / 3
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_output_is_valid_density_matrix(self):
        for seed in range(50):
            as_density_matrix(density_from_pure(states.haar_random_pure(seed)))


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
