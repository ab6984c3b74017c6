"""Tests for the finite-shot measurement simulator and statistical protocol.

Reference standard errors come from the exact cell probabilities: for binary
outcomes the estimator linearization h = st - p_t s - p_s t has variance
E[h^2] - E[h]^2, and SE = sqrt(Var(h)/n).  Werner(0.5) with z-axis probes
gives Var(h) = 0.046875 (sd 0.2165/sqrt(n)); the singlet with y tilted to
(1,0,1)/sqrt(2) gives Var(h) = 1/32 (sd 0.1768/sqrt(n)).
"""

import math

import numpy as np
import pytest

from bicorr import shotsim, states
from bicorr.correlation import ObservablePair
from bicorr.qstate import density_from_pure, observable_from_bloch
from bicorr.shotsim import (
    CELL_ORDER,
    DECISION_NONZERO,
    DECISION_ZERO,
    NonUnitBloch,
    ShotConfig,
    joint_outcome_probabilities,
    sample_joint,
    statistical_binary_protocol,
)

Z = np.array([0.0, 0.0, 1.0])
ZZ = ObservablePair(x=Z, y=Z)
MAX_MIXED = np.eye(4, dtype=complex) / 4


def singlet_rho():
    return density_from_pure(states.bell_state("psi-"))


class TestConfig:
    def test_defaults(self):
        cfg = ShotConfig()
        assert cfg.shots == 100_000 and cfg.z_threshold == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shots": 99},
            {"z_threshold": 0.0},
            {"seed": -1},
            {"seed": 2**64},
            {"shots": 2**63},
            {"z_threshold": math.inf},
            {"shots": 100.9},
            {"seed": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ShotConfig(**kwargs)


class TestOutcomeProbabilities:
    def test_cell_order_is_documented(self):
        assert CELL_ORDER == ((1, 1), (1, 0), (0, 1), (0, 0))

    def test_singlet_z_axes(self):
        # Perfect anticorrelation: only the (1,0) and (0,1) cells occur.
        probs = joint_outcome_probabilities(singlet_rho(), ZZ)
        np.testing.assert_allclose(probs, [0, 0.5, 0.5, 0], atol=1e-12)

    def test_basis_product_state(self):
        probs = joint_outcome_probabilities(density_from_pure([1, 0, 0, 0]), ZZ)
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_maximally_mixed_is_uniform(self):
        probs = joint_outcome_probabilities(MAX_MIXED, ZZ)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_matches_explicit_trace_oracle(self):
        rng = np.random.default_rng(27)
        rhos = (
            [states.random_mixed(seed, 2 + seed % 4) for seed in range(10)]
            + [states.random_separable_mixed(seed, 1 + seed % 5) for seed in range(10)]
            + [density_from_pure(states.haar_random_pure(seed)) for seed in range(10)]
        )
        for rho in rhos:
            x, y = rng.standard_normal((2, 3))
            pair = ObservablePair(x=x / np.linalg.norm(x), y=y / np.linalg.norm(y))
            q, r = observable_from_bloch(pair.x), observable_from_bloch(pair.y)
            p_a, p_b = {1: q, 0: np.eye(2) - q}, {1: r, 0: np.eye(2) - r}
            expected = [np.trace(rho @ np.kron(p_a[s], p_b[t])).real for s, t in CELL_ORDER]
            np.testing.assert_allclose(
                joint_outcome_probabilities(rho, pair), expected, rtol=0, atol=1e-12
            )

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(NonUnitBloch):
            joint_outcome_probabilities(MAX_MIXED, ObservablePair(x=[0.5, 0, 0], y=Z))

    def test_non_unit_norm_is_reported_as_a_float(self):
        with pytest.raises(NonUnitBloch, match=r"got norm 0\.5$"):
            sample_joint(singlet_rho(), ObservablePair(x=0.5 * Z, y=Z), ShotConfig())


class TestSampleJoint:
    def test_deterministic_given_seed(self):
        cfg = ShotConfig(shots=10_000, seed=99)
        first = sample_joint(states.werner(0.4), ZZ, cfg)
        second = sample_joint(states.werner(0.4), ZZ, cfg)
        assert first == second

    def test_singlet_estimate_and_decision(self):
        record = sample_joint(singlet_rho(), ZZ, ShotConfig(shots=100_000, seed=5))
        assert record.decision == DECISION_NONZERO
        assert abs(record.covariance_estimate + 0.25) < 1e-3
        assert abs(record.estimate_xy) < 1e-12
        assert abs(record.estimate_x - 0.5) < 0.02

    def test_maximally_mixed_reads_zero(self):
        record = sample_joint(MAX_MIXED, ZZ, ShotConfig(shots=100_000, seed=6))
        assert record.decision == DECISION_ZERO
        assert abs(record.covariance_estimate) < 5 * record.standard_error

    def test_werner_orthogonal_pair_reads_zero(self):
        pair = ObservablePair(x=[1.0, 0, 0], y=Z)
        record = sample_joint(states.werner(0.2), pair, ShotConfig(shots=100_000, seed=7))
        assert record.decision == DECISION_ZERO

    def test_standard_error_matches_binomial_oracle(self):
        record = sample_joint(states.werner(0.5), ZZ, ShotConfig(shots=100_000, seed=8))
        oracle = 0.21650635094610965 / math.sqrt(100_000)
        assert abs(record.standard_error - oracle) / oracle < 0.05
        assert abs(record.covariance_estimate + 0.125) < 5 * oracle

    def test_z_score_is_pearsons_statistic_and_decides(self):
        # Werner(0.05) on Z probes has phi = -0.05, so z = sqrt(n)|phi| is
        # about 5 at 1e4 shots and the draws fall on both sides of the cut.
        n = 10_000
        decisions = set()
        for seed in range(100):
            record = sample_joint(states.werner(0.05), ZZ, ShotConfig(shots=n, seed=seed))
            n11 = round(record.estimate_xy * n)
            n10 = round(record.estimate_x * n) - n11
            n01 = round(record.estimate_y * n) - n11
            n00 = n - n11 - n10 - n01
            rows, cols = (n11 + n10, n01 + n00), (n11 + n01, n10 + n00)
            chi2 = n * (n11 * n00 - n10 * n01) ** 2 / math.prod(rows + cols)
            assert record.z_score**2 == pytest.approx(chi2, rel=1e-9)
            assert (record.decision == DECISION_NONZERO) == (record.z_score > 5.0)
            decisions.add(record.decision)
        assert decisions == {DECISION_ZERO, DECISION_NONZERO}

    @pytest.mark.parametrize("amplitudes", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    def test_zero_marginal_reads_zero(self, amplitudes):
        record = sample_joint(density_from_pure(amplitudes), ZZ, ShotConfig(shots=1_000))
        assert record.covariance_estimate == 0.0
        assert record.z_score == 0.0
        assert record.decision == DECISION_ZERO

    @pytest.mark.parametrize("p0, shots", [(1e-3, 100_000), (1e-2, 10_000)])
    def test_skewed_product_state_reads_zero(self, p0, shots):
        # Both marginals are p0, so the (1,1) cell has probability p0**2 and
        # often comes out empty; that must not shrink the deciding SE.
        a = np.array([math.sqrt(p0), math.sqrt(1 - p0)])
        rho = density_from_pure(np.kron(a, a))
        calls = [
            sample_joint(rho, ZZ, ShotConfig(shots=shots, seed=seed)).decision
            for seed in range(200)
        ]
        assert calls.count(DECISION_NONZERO) == 0

    def test_a_billion_shots(self):
        record = sample_joint(states.werner(0.4), ZZ, ShotConfig(shots=10**9, seed=9))
        assert record.shots_used == 10**9
        assert abs(record.covariance_estimate + 0.1) < 5 * record.standard_error


class TestStatisticalProtocol:
    def test_singlet_is_detected(self):
        verdict, trace = statistical_binary_protocol(
            singlet_rho(), cfg=ShotConfig(shots=100_000, seed=3)
        )
        assert verdict.label == "Entangled"
        assert trace.measurements_used == 3
        assert "shots per probe" in verdict.detail

    def test_product_state_is_separable(self):
        rho = density_from_pure(states.random_product_pure(12))
        verdict, _ = statistical_binary_protocol(rho, cfg=ShotConfig(shots=100_000, seed=4))
        assert verdict.label == "Separable"

    def test_mixed_input_stays_indeterminate(self):
        verdict, _ = statistical_binary_protocol(
            states.werner(0.2), cfg=ShotConfig(shots=100_000, seed=5)
        )
        assert verdict.label == "Indeterminate"

    def test_near_product_state_is_below_detection_floor(self):
        # Schmidt coefficients (sqrt(1 - eps^2), eps) with eps = 1e-3: the
        # largest covariance is eps^2(1 - eps^2) ~ 1e-6, far below the shot
        # noise at 1e4 shots, so the protocol cannot flag entanglement.
        eps = 1e-3
        psi = np.array([math.sqrt(1 - eps**2), 0, 0, eps], dtype=complex)
        verdict, _ = statistical_binary_protocol(
            density_from_pure(psi), cfg=ShotConfig(shots=10_000, seed=21)
        )
        assert verdict.label in ("Separable", "Indeterminate")

    def test_probe_runs_use_partitioned_seeds(self):
        cfg = ShotConfig(shots=10_000, seed=40)
        _, trace = statistical_binary_protocol(MAX_MIXED, cfg=cfg, assume_pure=True)
        direct = [
            sample_joint(
                MAX_MIXED,
                ObservablePair(x=np.eye(3)[i], y=Z),
                ShotConfig(shots=10_000, seed=40 + i),
            ).covariance_estimate
            for i in range(3)
        ]
        assert [p.covariance for p in trace.probes] == direct

    @pytest.mark.parametrize(
        "y, used", [(0.5 * Z, 3), (np.array([0.3, 0.4, 0.0]), 1)], ids=["three", "one"]
    )
    def test_samples_each_probe_it_reads_once(self, monkeypatch, y, used):
        # Probe i is sampled at seed + i on the unit copies of x and y, only when it is read.
        calls = []

        def counted(rho, pair, cfg):
            calls.append(cfg.seed)
            return sample_joint(rho, pair, cfg)

        monkeypatch.setattr(shotsim, "sample_joint", counted)
        xs = np.array([[0.3, -0.4, 0.0], [-0.2, -0.15, 0.0], [0.2, 0.1, 0.6]])
        cfg = ShotConfig(shots=10_000, seed=70)
        verdict, trace = statistical_binary_protocol(singlet_rho(), y=y, xs=xs, cfg=cfg)
        assert (verdict.label, trace.measurements_used) == ("Entangled", used)
        assert calls == [70 + i for i in range(used)]
        unit_y = y / np.linalg.norm(y)
        for i, probe in enumerate(trace.probes):
            pair = ObservablePair(x=xs[i] / np.linalg.norm(xs[i]), y=unit_y)
            record = sample_joint(singlet_rho(), pair, ShotConfig(shots=10_000, seed=70 + i))
            assert probe.covariance == record.covariance_estimate

    def test_probe_seeds_wrap_at_two_to_the_64(self):
        rho = density_from_pure(states.random_product_pure(12))
        top = 2**64 - 1
        verdict, trace = statistical_binary_protocol(rho, cfg=ShotConfig(shots=10_000, seed=top))
        assert verdict.label == "Separable"
        direct = [
            sample_joint(
                rho, ObservablePair(x=np.eye(3)[i], y=Z), ShotConfig(shots=10_000, seed=seed)
            ).covariance_estimate
            for i, seed in enumerate((top, 0, 1))
        ]
        assert [p.covariance for p in trace.probes] == direct
