"""Tests for covariances and the correlation matrix, including the
cross-validation of the trace-formula route against the matrix shortcut.

Bilinearity and the pure-state determinant identity are ``bicorr.verify``
registry checks, run by tests/test_acceptance.py.
"""

import re
import reprlib

import numpy as np
import pytest

from bicorr import correlation, states
from bicorr.correlation import (
    CorrMatrix,
    ObservablePair,
    correlation_matrix,
    covariance_direct,
    covariance_via_c,
)
from bicorr.detect import exact_protocol
from bicorr.qstate import (
    BlochForm,
    BlochOutOfBall,
    CheckedState,
    bloch_decompose,
    density_from_pure,
)

CHEN_C = (2.0 / 9.0) * np.array([[1, 0, -2], [0, -3, 0], [2, 0, 2]], dtype=float)
Z = np.array([0.0, 0.0, 1.0])


def random_pair(rng, unit=False):
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    if not unit:
        x *= rng.random()
        y *= rng.random()
    return ObservablePair(x=x, y=y)


class TestObservablePair:
    def test_accepts_ball_vectors(self):
        pair = ObservablePair(x=[0.3, 0, 0], y=[0, 0, 1.0])
        assert pair.x.shape == (3,)

    def test_rejects_vector_outside_ball(self):
        with pytest.raises(BlochOutOfBall):
            ObservablePair(x=[2.0, 0, 0], y=[0, 0, 1.0])

    def test_rejects_stacks_that_do_not_broadcast(self):
        # It was accepted, and every covariance and shot route then failed inside numpy.
        message = "x of shape (2, 3) and y of shape (3, 3) do not broadcast"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ObservablePair(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_stacks_that_broadcast_are_kept_as_given(self):
        pair = ObservablePair(np.zeros((2, 1, 3)), np.zeros((4, 3)))
        assert (pair.x.shape, pair.y.shape) == ((2, 1, 3), (4, 3))


class TestCovarianceDirect:
    def test_constant_observable_has_zero_covariance(self):
        for seed in range(10):
            rho = states.random_density(seed)
            pair = ObservablePair(x=np.zeros(3), y=Z)
            assert abs(covariance_direct(rho, pair)) < 1e-12

    def test_singlet_aligned_pair(self):
        rho = density_from_pure(states.bell_state("psi-"))
        value = covariance_direct(rho, ObservablePair(x=Z, y=Z))
        assert abs(value + 0.25) < 1e-12

    def test_werner_half_x_axis(self):
        value = covariance_direct(
            states.werner(0.5), ObservablePair(x=[1.0, 0, 0], y=[1.0, 0, 0])
        )
        assert abs(value + 0.125) < 1e-12


class TestCorrelationMatrix:
    def test_singlet(self):
        cm = correlation_matrix(density_from_pure(states.bell_state("psi-")))
        np.testing.assert_allclose(cm.c, -np.eye(3), atol=1e-12)
        np.testing.assert_allclose(cm.singular_values, np.ones(3), atol=1e-12)

    def test_chen(self):
        cm = correlation_matrix(density_from_pure(states.chen_state()))
        np.testing.assert_allclose(cm.c, CHEN_C, atol=1e-12)
        # Concurrence 2/3: singular values (k, k, k^2).
        np.testing.assert_allclose(cm.singular_values, [2 / 3, 2 / 3, 4 / 9], atol=1e-12)

    def test_product_states_have_zero_matrix(self):
        for seed in range(100):
            cm = correlation_matrix(density_from_pure(states.random_product_pure(seed)))
            assert np.abs(cm.c).max() < 1e-10
            assert cm.singular_values.max() < 1e-10

    def test_singular_values_are_computed_once_and_only_when_read(self, monkeypatch):
        calls, solver = [], correlation.symmetric3_singular_values

        def counted(c):
            calls.append(c.shape)
            return solver(c)

        monkeypatch.setattr(correlation, "symmetric3_singular_values", counted)
        cm = correlation_matrix(states.random_density(range(20)))
        exact_protocol(states.random_density(range(20)))
        assert calls == []
        assert cm.singular_values is cm.singular_values
        assert calls == [(20, 3, 3)]

    def test_refuses_a_bloch_form(self):
        # A form enters only through bloch_assemble, which checks it; this one is not a state.
        bad = BlochForm(a=np.full(3, np.nan), b=np.zeros(3), f=7 * np.eye(3))
        for form in (bad, bloch_decompose(states.werner(0.5))):
            got = reprlib.repr(form)
            message = f"density matrix must be a number or a stack of them, got {got}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                correlation_matrix(form)

    def test_a_checked_state_keeps_its_form_and_c(self):
        rho = CheckedState(states.random_density(range(20)))
        assert rho.bloch is rho.bloch and rho.cm is rho.cm
        fresh = correlation_matrix(rho.matrix)
        assert rho.cm.c.tobytes() == fresh.c.tobytes()
        assert rho.bloch.f.tobytes() == bloch_decompose(rho.matrix).f.tobytes()

    def test_werner_family(self):
        for xi in (0.0, 0.25, 0.5, 1.0):
            cm = correlation_matrix(states.werner(xi))
            np.testing.assert_allclose(cm.c, -xi * np.eye(3), atol=1e-12)


class TestCovarianceViaC:
    def test_minus_identity(self):
        cm = correlation_matrix(density_from_pure(states.bell_state("psi-")))
        assert abs(covariance_via_c(cm, ObservablePair(x=Z, y=Z)) + 0.25) < 1e-12

    def test_zero_matrix(self):
        cm = CorrMatrix(c=np.zeros((3, 3)))
        rng = np.random.default_rng(31)
        for _ in range(20):
            assert covariance_via_c(cm, random_pair(rng)) == 0.0

    def test_chen_zero_plane(self):
        # With y on the first axis, c y is proportional to (1, 0, 2); any x in
        # the orthogonal plane spanned by (2, 0, -1) and (0, 1, 0) gives zero.
        cm = correlation_matrix(density_from_pure(states.chen_state()))
        x = np.array([2.0, 0.0, -1.0]) / np.sqrt(5.0)
        pair = ObservablePair(x=x, y=[1.0, 0, 0])
        assert abs(covariance_via_c(cm, pair)) < 1e-12


class TestPathEquivalence:
    """The trace formula and the correlation-matrix shortcut must agree."""

    def test_random_states_and_pairs(self):
        rng = np.random.default_rng(32)
        for seed in range(1000):
            rho = states.random_density(seed)
            pair = random_pair(rng)
            direct = covariance_direct(rho, pair)
            shortcut = covariance_via_c(correlation_matrix(rho), pair)
            assert abs(direct - shortcut) < 1e-10
