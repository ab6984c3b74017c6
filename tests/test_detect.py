"""Tests for the decision layer: zero-pair construction, rank classifier,
three-probe protocol, Schmidt and PPT oracles, and the Werner case study."""

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
    DEFAULT_XS,
    DEFAULT_Y,
    DependentProbes,
    ENTANGLED,
    INDETERMINATE,
    SEPARABLE,
    binary_protocol,
    classify_pure_by_rank,
    find_zero_correlation_pair,
    ppt_is_separable,
    schmidt_rank,
)
from bicorr.linalg import ZERO_CORRELATION_TOL
from bicorr.qstate import BlochOutOfBall, density_from_pure, partial_transpose_b
from bicorr.shotsim import statistical_binary_protocol

Z = np.array([0.0, 0.0, 1.0])
SHORT_Y = np.array([1e-11, 0.0, 0.0])  # the singlet's c(e1, y) = -2.5e-12 is not zero for it
ONE_STATE = "the protocol takes one state and one y, got shapes"


class TestFindZeroCorrelationPair:
    def test_singlet(self):
        rho = density_from_pure(states.bell_state("psi-"))
        pair = find_zero_correlation_pair(rho, Z)
        assert abs(np.linalg.norm(pair.x) - 1) < 1e-12
        assert abs(pair.x @ Z) < 1e-12
        assert abs(covariance_direct(rho, pair)) < 1e-10

    def test_chen_pair_lies_in_stated_plane(self):
        rho = density_from_pure(states.chen_state())
        pair = find_zero_correlation_pair(rho, np.array([1.0, 0, 0]))
        # The zero plane for y = e1 is spanned by (2, 0, -1) and (0, 1, 0),
        # i.e. everything orthogonal to (1, 0, 2).
        assert abs(pair.x @ np.array([1.0, 0, 2.0])) < 1e-10
        assert abs(covariance_direct(rho, pair)) < 1e-10

    def test_product_state_returns_first_axis(self):
        rho = density_from_pure(states.random_product_pure(5))
        pair = find_zero_correlation_pair(rho, Z)
        np.testing.assert_allclose(pair.x, [1.0, 0, 0])
        assert abs(covariance_direct(rho, pair)) < 1e-10

    def test_random_mixed_states(self):
        rng = np.random.default_rng(41)
        for seed in range(500):
            rho = (
                states.random_separable_mixed(seed, 1 + seed % 4)
                if seed % 2
                else states.random_mixed(seed, 2 + seed % 4)
            )
            y = rng.standard_normal(3)
            y /= np.linalg.norm(y)
            pair = find_zero_correlation_pair(rho, y)
            assert abs(covariance_direct(rho, pair)) < 1e-10

    def test_werner_grid(self):
        for xi in (0.0, 0.2, 1 / 3, 0.5, 1.0):
            pair = find_zero_correlation_pair(states.werner(xi), Z)
            assert abs(covariance_direct(states.werner(xi), pair)) < 1e-10

    def test_short_y_pair_is_zero_per_unit_length(self):
        rho = density_from_pure(states.bell_state("psi-"))
        pair = find_zero_correlation_pair(rho, SHORT_Y)
        value = covariance_via_c(correlation_matrix(rho), pair)
        assert abs(value) < ZERO_CORRELATION_TOL * np.linalg.norm(pair.x) * np.linalg.norm(SHORT_Y)


class TestRankClassifier:
    def test_basis_state_is_separable(self):
        assert classify_pure_by_rank([1, 0, 0, 0]).label == SEPARABLE

    def test_singlet_is_entangled(self):
        assert classify_pure_by_rank(states.bell_state("psi-")).label == ENTANGLED

    def test_chen_is_entangled(self):
        assert classify_pure_by_rank(states.chen_state()).label == ENTANGLED

    def test_weak_entanglement_agrees_with_ppt(self):
        # cos t|00> + sin t|11> has concurrence sin 2t, which local unitaries
        # keep; all three deciders cut at concurrence 2e-9.
        rng = np.random.default_rng(17)
        u_a, u_b = (
            np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            for _ in range(2)
        )
        for t in np.geomspace(1e-12, np.pi / 4, 400):
            psi = np.kron(u_a, u_b) @ np.array([np.cos(t), 0, 0, np.sin(t)])
            verdict = classify_pure_by_rank(psi)
            assert "sigma_max(c)" in verdict.detail
            if abs(np.sin(2 * t) / 2e-9 - 1) <= 0.01:
                continue
            ppt_separable = ppt_is_separable(density_from_pure(psi))
            assert (verdict.label == SEPARABLE) == ppt_separable, t
            assert (verdict.label == SEPARABLE) == (schmidt_rank(psi) == 1), t


class TestBinaryProtocol:
    def test_singlet_detected_at_third_probe(self):
        rho = density_from_pure(states.bell_state("psi-"))
        verdict, trace = binary_protocol(rho)
        assert verdict.label == ENTANGLED
        assert trace.measurements_used == 3
        assert [p.is_zero for p in trace.probes] == [True, True, False]
        assert abs(trace.probes[2].covariance + 0.25) < 1e-12

    def test_product_state_shows_three_zeros(self):
        rho = density_from_pure(states.random_product_pure(3))
        verdict, trace = binary_protocol(rho)
        assert verdict.label == SEPARABLE
        assert trace.measurements_used == 3
        assert all(p.is_zero for p in trace.probes)

    def test_mixed_input_is_indeterminate(self):
        verdict, trace = binary_protocol(states.werner(0.2))
        assert verdict.label == INDETERMINATE
        assert verdict.detail == "non-zero correlation on mixed input"
        assert trace.probes[-1].is_zero is False

    def test_short_y_singlet_is_entangled_at_the_first_probe(self):
        rho = density_from_pure(states.bell_state("psi-"))
        verdict, trace = binary_protocol(rho, y=SHORT_Y)
        assert verdict.label == ENTANGLED
        assert trace.measurements_used == 1
        assert abs(trace.probes[0].covariance + 2.5e-12) < 1e-24

    def test_short_y_product_state_stays_separable(self):
        rho = density_from_pure(states.random_product_pure(3))
        verdict, trace = binary_protocol(rho, y=SHORT_Y)
        assert verdict.label == SEPARABLE
        assert all(p.is_zero for p in trace.probes)

    def test_assume_pure_applies_pure_semantics_to_mixed_input(self):
        verdict, _ = binary_protocol(states.werner(0.2), assume_pure=True)
        assert verdict.label == ENTANGLED

    def test_rejects_dependent_probes(self):
        xs = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0]])
        with pytest.raises(DependentProbes):
            binary_protocol(states.werner(0.5), y=Z, xs=xs)

    def test_rejects_out_of_ball_probe_after_the_deciding_one(self):
        # The first probe already decides the singlet; the third is still checked.
        rho = density_from_pure(states.bell_state("psi-"))
        xs = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 2.0]])
        with pytest.raises(BlochOutOfBall):
            binary_protocol(rho, y=np.array([1.0, 0, 0]), xs=xs)

    @pytest.mark.parametrize("protocol", [binary_protocol, statistical_binary_protocol])
    def test_rejects_a_stack_of_y(self, protocol):
        rho = density_from_pure(states.bell_state("psi-"))
        with pytest.raises(ValueError, match=rf"^{ONE_STATE} \(4, 4\) and \(2, 3\)$"):
            protocol(rho, y=np.stack([Z, Z]))

    @pytest.mark.parametrize("protocol", [binary_protocol, statistical_binary_protocol])
    def test_rejects_a_stack_of_states(self, protocol):
        rho = np.stack([states.werner(0.2), states.werner(0.8)])
        with pytest.raises(ValueError, match=rf"^{ONE_STATE} \(2, 4, 4\) and \(3,\)$"):
            protocol(rho)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_named_where_it_enters(bad):
    rho = density_from_pure(states.bell_state("psi-"))
    xs = np.eye(3)
    xs[2, 2] = bad
    with pytest.raises(ValueError, match="probe"):
        binary_protocol(rho, y=Z, xs=xs)
    with pytest.raises(ValueError, match="^y "):
        find_zero_correlation_pair(rho, np.array([0.0, bad, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("which", ["probe set", "y"])
def test_huge_component_is_rejected_before_it_overflows(which):
    # 1e200 squared overflows a float; the component check must come first.
    rho = density_from_pure(states.bell_state("psi-"))
    y, xs = Z.copy(), np.eye(3)
    if which == "probe set":
        xs[0, 0] = 1e200
    else:
        y[2] = 1e200
    with pytest.raises(BlochOutOfBall, match=f"^{which} component 1e\\+200 exceeds 1"):
        binary_protocol(rho, y=y, xs=xs)


class TestSchmidtRank:
    def test_basis_state(self):
        assert schmidt_rank([1, 0, 0, 0]) == 1

    def test_singlet(self):
        assert schmidt_rank(states.bell_state("psi-")) == 2

    def test_chen(self):
        assert schmidt_rank(states.chen_state()) == 2

    def test_all_bell_states(self):
        for which in ("phi+", "phi-", "psi+", "psi-"):
            assert schmidt_rank(states.bell_state(which)) == 2


class TestPPT:
    def test_maximally_mixed_is_separable(self):
        assert ppt_is_separable(np.eye(4, dtype=complex) / 4)

    def test_singlet_is_entangled(self):
        assert not ppt_is_separable(density_from_pure(states.bell_state("psi-")))

    def test_werner_threshold(self):
        assert ppt_is_separable(states.werner(1 / 3))
        assert not ppt_is_separable(states.werner(1 / 3 + 1e-3))

    def test_partial_transpose_is_an_involution(self):
        for seed in range(50):
            rho = states.random_mixed(seed)
            np.testing.assert_allclose(
                partial_transpose_b(partial_transpose_b(rho)), rho, atol=1e-15
            )

    def test_separable_mixtures_always_pass(self):
        for seed in range(300):
            assert ppt_is_separable(states.random_separable_mixed(seed, 1 + seed % 6))


class TestWernerCaseStudy:
    def test_maximally_mixed_endpoint(self):
        rho = states.werner(0.0)
        assert abs(covariance_direct(rho, ObservablePair(x=Z, y=Z))) < 1e-12
        assert ppt_is_separable(rho)

    def test_singlet_endpoint(self):
        rho = states.werner(1.0)
        assert abs(covariance_direct(rho, ObservablePair(x=Z, y=Z)) + 0.25) < 1e-12
        assert not ppt_is_separable(rho)

    def test_zero_correlation_coexists_with_both_verdicts(self):
        pair = ObservablePair(x=np.array([1.0, 0, 0]), y=Z)
        separable = states.werner(0.2)
        entangled = states.werner(0.5)
        assert abs(covariance_direct(separable, pair)) < 1e-12
        assert abs(covariance_direct(entangled, pair)) < 1e-12
        assert ppt_is_separable(separable) and not ppt_is_separable(entangled)

    def test_covariance_matches_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            xi = rng.random()
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            rho = states.werner(xi)
            assert abs(covariance_direct(rho, ObservablePair(x=x, y=y)) + xi / 4 * (x @ y)) < 1e-12
            np.testing.assert_allclose(correlation_matrix(rho).c, -xi * np.eye(3), atol=1e-12)


def test_default_probes_are_deterministic():
    np.testing.assert_allclose(DEFAULT_Y, [0, 0, 1])
    np.testing.assert_allclose(DEFAULT_XS, np.eye(3))
