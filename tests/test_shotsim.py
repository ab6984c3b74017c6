"""Tests for the finite-shot measurement simulator and statistical protocol.

Reference standard errors come from the exact cell probabilities: for binary
outcomes the estimator linearization h = st - p_t s - p_s t has variance
E[h^2] - E[h]^2, and SE = sqrt(Var(h)/n).  Werner(0.5) with z-axis probes
gives Var(h) = 0.046875 (sd 0.2165/sqrt(n)); the singlet with y tilted to
(1,0,1)/sqrt(2) gives Var(h) = 1/32 (sd 0.1768/sqrt(n)).
"""

import hashlib
import json
import math
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from bicorr import shotsim, states
from bicorr.correlation import (
    ObservablePair,
    _checked_pair,
    correlation_matrix,
    covariance_via_c,
)
from bicorr.linalg import directions
from bicorr.qstate import (
    CheckedState,
    InvalidState,
    density_from_pure,
    observable_from_bloch,
    outcome_table,
)
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
            {"shots": 2**53 + 1},
            {"shots": 2**63},
            {"z_threshold": math.inf},
            {"shots": 100.9},
            {"seed": 1.5},
            {"z_threshold": "5"},  # the comparison raised TypeError for these two
            {"z_threshold": None},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ShotConfig(**kwargs)

    def test_takes_up_to_2_53_shots(self):
        # Above 2**53 a marginal can round to 1 (see the null-SE test in TestStackedSampler).
        assert ShotConfig(shots=2**53).shots == 2**53
        message = f"^shots must be an integer from 100 to {2**53}, got {2**54}$"
        with pytest.raises(ValueError, match=message):
            ShotConfig(shots=2**54)

    @pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
    @pytest.mark.parametrize("field", ["shots", "seed", "z_threshold"])
    def test_rejects_a_bool(self, field, value):
        # True is the int 1 to isinstance and to <, so it ran as seed 1 or as z = 1.
        rule = {
            "shots": f"an integer from 100 to {2**53}",
            "seed": f"an integer from 0 to {2**64 - 1}",
            "z_threshold": "a finite positive number",
        }[field]
        message = f"{field} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShotConfig(**{field: value})

    @pytest.mark.parametrize(
        "z",
        [np.array([5.0]), np.array([5.0, 6.0]), [5.0], np.array([[5.0]]), 10**400],
        ids=["one-entry array", "two-entry array", "list", "matrix", "int past a float"],
    )
    def test_refuses_a_z_that_is_not_one_real_number(self, z):
        # An array of one entry was held, and the detail's format then raised TypeError; two
        # entries raised numpy's ambiguous-truth text.
        message = f"z_threshold must be a finite positive number, got {z!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShotConfig(z_threshold=z)

    @pytest.mark.parametrize("z", [4, np.float32(4.0), np.array(4.0), np.int64(4)])
    def test_a_real_z_is_held_as_a_python_float(self, z):
        cfg = ShotConfig(z_threshold=z)
        assert type(cfg.z_threshold) is float and cfg.z_threshold == 4.0
        verdict, _ = statistical_binary_protocol(singlet_rho(), cfg=cfg)
        assert verdict.detail.endswith("z threshold 4 (confidence, not certainty)")

    def test_numpy_integers_are_held_as_python_ints(self):
        # The fields were the numpy scalars as given, which json cannot write.
        cfg = ShotConfig(shots=np.int64(1000), seed=np.uint64(7))
        assert json.dumps(asdict(cfg)) == (
            '{"shots": 1000, "seed": 7, "z_threshold": 5.0}'
        )
        assert type(cfg.shots) is int and type(cfg.seed) is int


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

    @pytest.mark.parametrize("ball", [False, True], ids=["unit", "ball"])
    def test_matches_explicit_trace_oracle(self, ball):
        # Every pair in the Bloch ball gives positive P_1 and P_0, so the cells are a
        # distribution whose covariance is (1/4) x.C.y.
        rng = np.random.default_rng(27)
        rhos = (
            [states.random_mixed(seed, 2 + seed % 4) for seed in range(10)]
            + [states.random_separable_mixed(seed, 1 + seed % 5) for seed in range(10)]
            + [density_from_pure(states.haar_random_pure(seed)) for seed in range(10)]
        )
        for rho in rhos:
            x, y = directions(rng.standard_normal((2, 3)))
            radii = rng.uniform(0, 1, 2) if ball else (1.0, 1.0)
            pair = ObservablePair(x=radii[0] * x, y=radii[1] * y)
            q, r = observable_from_bloch(pair.x), observable_from_bloch(pair.y)
            p_a, p_b = {1: q, 0: np.eye(2) - q}, {1: r, 0: np.eye(2) - r}
            expected = [np.trace(rho @ np.kron(p_a[s], p_b[t])).real for s, t in CELL_ORDER]
            probs = joint_outcome_probabilities(rho, pair)
            np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)
            covariance = probs[0] - (probs[0] + probs[1]) * (probs[0] + probs[2])
            exact = covariance_via_c(correlation_matrix(rho), pair)
            assert abs(covariance - exact) <= 1e-12

    def test_rejects_non_unit_vectors(self):
        # The kernel takes the pair; sample_joint refuses it, before the state's trace of 0.
        pair = ObservablePair(x=[0.5, 0, 0], y=Z)
        np.testing.assert_allclose(joint_outcome_probabilities(MAX_MIXED, pair), 0.25, atol=1e-15)
        for rho in (MAX_MIXED, np.zeros((4, 4))):
            with pytest.raises(NonUnitBloch):
                sample_joint(rho, pair, ShotConfig())

    def test_non_unit_norm_is_reported_as_a_float(self):
        message = r"^x must be a unit vector, its norm is off 1 by 0\.5$"
        with pytest.raises(NonUnitBloch, match=message):
            sample_joint(singlet_rho(), ObservablePair(x=0.5 * Z, y=Z), ShotConfig())

    def test_the_protocols_pair_reaches_the_kernel_once(self, monkeypatch):
        # The protocol's checked unit directions go to the kernel, which checks no length;
        # sample_joint refuses a pair that is not unit.
        with pytest.raises(NonUnitBloch):
            sample_joint(singlet_rho(), _checked_pair(np.array([0.0, 0.0, 2.0]), Z), ShotConfig())
        seen, original = [], shotsim.joint_outcome_probabilities

        def spy(rho, pair):
            seen.append(pair)
            return original(rho, pair)

        monkeypatch.setattr(shotsim, "joint_outcome_probabilities", spy)
        shotsim.statistical_binary_protocol(singlet_rho(), cfg=ShotConfig(shots=1000))
        assert len(seen) == 1 and type(seen[0]) is ObservablePair
        np.testing.assert_array_equal(seen[0].x, np.eye(3))
        np.testing.assert_array_equal(seen[0].y, Z)

    def test_a_stack_of_unit_probes_is_accepted(self):
        probs = joint_outcome_probabilities(MAX_MIXED, ObservablePair(x=np.eye(3), y=Z))
        assert probs.shape == (3, 4)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    @pytest.mark.parametrize(
        "x, index",
        [(np.array([Z, 0.5 * Z, Z]), 1), (np.eye(3)[:2] / math.sqrt(2), 0)],
        ids=["short row", "rows of length 1/sqrt(2)"],
    )
    def test_first_non_unit_row_is_named(self, x, index):
        message = rf"^x at stack index {index} must be a unit vector, its norm is off 1 by"
        with pytest.raises(NonUnitBloch, match=message):
            sample_joint(MAX_MIXED, ObservablePair(x=x, y=Z), ShotConfig())

    def test_a_state_that_is_not_a_distribution_is_named_by_index(self):
        # Hermitian with unit trace, so structurally a state, but cell (0, 1) is -0.2.
        rho = np.stack([MAX_MIXED, np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex)])
        message = r"^cell probabilities at stack index 1 are not a distribution: one is -2\.0"
        with pytest.raises(InvalidState, match=message):
            joint_outcome_probabilities(rho, ZZ)

    def test_a_cell_just_below_zero_is_clipped_by_the_ordered_checks(self):
        # Within the Hermitian and trace slack; cell (0, 0) is -5e-11, within IMAG_TOL of 0, and
        # cell (1, 1) has an imaginary residue of 5e-11, which the ordered checks take as well.
        rho = np.diag([0.5 + 5e-11j, 0.25, 0.25 + 5e-11, -5e-11])
        probs = joint_outcome_probabilities(rho, ZZ)
        assert probs[3] == 0.0 and math.copysign(1.0, probs[3]) == 1.0
        cells = np.array([0.5, 0.25, 0.25 + 5e-11, 0.0])
        np.testing.assert_allclose(probs, cells / cells.sum(), rtol=0, atol=1e-16)


def _cells_diag(*cells) -> np.ndarray:
    """The state whose z-probe cells are cells, in CELL_ORDER."""
    return np.diag(cells).astype(complex)


class TestNormCuts:
    """The unit and cell bounds, straddled within a factor of 4 of their cut."""

    def test_a_unit_length_is_straddled_from_below(self):
        # Above 1, the ball check refuses a length from 1 + 1e-12 on, before the unit check.
        sample_joint(MAX_MIXED, ObservablePair(x=(1 - 5e-10) * Z, y=Z), ShotConfig())
        message = f"x must be a unit vector, its norm is off 1 by {abs((1 - 2e-9) - 1)!r}"
        with pytest.raises(NonUnitBloch, match=f"^{re.escape(message)}$"):
            sample_joint(MAX_MIXED, ObservablePair(x=(1 - 2e-9) * Z, y=Z), ShotConfig())

    def test_a_negative_cell_is_clipped_at_5e_11_and_refused_at_2e_10(self):
        probs = joint_outcome_probabilities(_cells_diag(0.5, 0.25, 0.25 + 5e-11, -5e-11), ZZ)
        assert probs[3] == 0.0
        message = "cell probabilities are not a distribution: one is -2.000e-10"
        with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
            joint_outcome_probabilities(_cells_diag(0.5, 0.25, 0.25 + 2e-10, -2e-10), ZZ)

    def test_a_clipped_distribution_may_sum_5e_10_off_1(self):
        # A negative cell sends the cells to the sum bound.  The trace bound, the same NORM_TOL,
        # refuses a state whose cells sum further off 1, so the cut is straddled from below.
        cells = np.array([0.5, 0.25, 0.25 + 5e-10, -5e-11])
        probs = joint_outcome_probabilities(_cells_diag(*cells), ZZ)
        clipped = np.maximum(cells, 0.0)
        np.testing.assert_allclose(probs, clipped / clipped.sum(), rtol=0, atol=1e-16)


def _imaginary_state(residue: float = 4e-10) -> np.ndarray:
    """I/4 with residue * i added to rho_00: within the Hermitian and trace slack, so a
    CheckedState, and its Z-probe cell (1, 1) has imaginary part residue (IMAG_TOL is 1e-10)."""
    rho = MAX_MIXED.copy()
    rho[0, 0] += residue * 1j
    return rho


class TestCellRoute:
    """The cells from the Pauli traces against ``outcome_table``'s contraction."""

    def test_an_imaginary_cell_is_refused(self):
        rho = CheckedState(_imaginary_state())
        message = r"^cell probability has imaginary residue 4\.000e-10$"
        with pytest.raises(InvalidState, match=message):
            joint_outcome_probabilities(rho, ZZ)

    def test_an_imaginary_residue_below_the_cut_is_dropped(self):
        probs = joint_outcome_probabilities(_imaginary_state(5e-11), ZZ)
        np.testing.assert_allclose(probs, 0.25, rtol=0, atol=1e-15)

    def test_an_imaginary_cell_is_named_by_its_stack_index(self):
        rho = np.stack([MAX_MIXED, singlet_rho(), _imaginary_state(), MAX_MIXED])
        message = r"^cell probability at stack index 2 has imaginary residue 4\.000e-10$"
        with pytest.raises(InvalidState, match=message):
            joint_outcome_probabilities(rho, ZZ)

    @staticmethod
    def _table_cells(rho, x, y) -> np.ndarray:
        table = outcome_table(rho, x, y)
        return table[..., ::-1, ::-1].reshape(table.shape[:-2] + (4,)).real

    def test_a_stack_of_states_agrees_with_the_outcome_table(self):
        rho = states.random_density(range(300))
        x, y = directions(np.random.default_rng(32).standard_normal((2, 300, 3)))
        probs = joint_outcome_probabilities(rho, ObservablePair(x=x, y=y))
        assert probs.shape == (300, 4)
        np.testing.assert_allclose(probs, self._table_cells(rho, x, y), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "rho_shape, x_shape, y_shape",
        [
            ((5,), (), ()), ((), (5,), ()), ((), (), (5,)), ((5, 1), (1, 4), ()),
            ((4,), (3, 1), (4,)),
        ],
    )
    def test_broadcast_stacks_agree_with_the_outcome_table(self, rho_shape, x_shape, y_shape):
        n = int(np.prod(rho_shape, dtype=int))
        rho = states.random_density(range(n)).reshape(rho_shape + (4, 4))
        rng = np.random.default_rng(sum(rho_shape + x_shape + y_shape))
        x = directions(rng.standard_normal(x_shape + (3,)))
        y = directions(rng.standard_normal(y_shape + (3,)))
        probs = joint_outcome_probabilities(rho, ObservablePair(x=x, y=y))
        assert probs.shape == np.broadcast_shapes(rho_shape, x_shape, y_shape) + (4,)
        np.testing.assert_allclose(probs, self._table_cells(rho, x, y), rtol=0, atol=1e-15)

    def test_a_basis_state_gives_exact_cells(self):
        probs = joint_outcome_probabilities(density_from_pure([1, 0, 0, 0]), ZZ)
        assert np.array_equal(probs, [1.0, 0.0, 0.0, 0.0])


class TestSampleJoint:
    def test_deterministic_given_seed(self):
        cfg = ShotConfig(shots=10_000, seed=99)
        first = sample_joint(states.werner(0.4), ZZ, cfg)
        second = sample_joint(states.werner(0.4), ZZ, cfg)
        assert first == second

    def test_a_record_is_not_equal_to_another_type(self):
        record = sample_joint(states.werner(0.4), ZZ, ShotConfig(shots=1_000))
        assert record.__eq__("a record") is NotImplemented
        assert record != "a record"

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


def _pairs(n, seed):
    x, y = np.random.default_rng(seed).standard_normal((2, n, 3))
    return ObservablePair(
        x=x / np.linalg.norm(x, axis=-1, keepdims=True),
        y=y / np.linalg.norm(y, axis=-1, keepdims=True),
    )


def assert_row_is_draw(stacked, i, rho, pair, cfg):
    """Row i of a stacked record has the statistics of the protocol's draw of its cells at
    cfg.seed, bit for bit: the other route from counts to a record."""
    drawn = shotsim._draw(joint_outcome_probabilities(rho, pair), cfg, cfg.seed)
    names = ("estimate_xy", "estimate_x", "estimate_y", "covariance_estimate", "z_score")
    for name, value in zip(names, drawn, strict=True):
        row = getattr(stacked, name)[i]
        assert isinstance(row, np.float64) and isinstance(value, np.float64), name
        assert row.tobytes() == value.tobytes(), (i, name)
    nonzero = drawn[-1] > cfg.z_threshold
    assert stacked.decision[i] == (DECISION_NONZERO if nonzero else DECISION_ZERO)


class TestStackedSampler:
    def test_stack_equals_one_call_per_row_at_consecutive_seeds(self):
        rho = np.stack([states.random_density(s) for s in range(500)])
        pair = _pairs(500, 31)
        top = 2**64 - 250  # rows 250 on draw at seeds 0, 1, ...
        stacked = sample_joint(rho, pair, ShotConfig(shots=10_000, seed=top))
        for i in range(500):
            row_pair = ObservablePair(x=pair.x[i], y=pair.y[i])
            assert_row_is_draw(stacked, i, rho[i], row_pair, ShotConfig(10_000, (top + i) % 2**64))
        assert stacked.shots_used == 10_000
        assert set(stacked.decision) == {DECISION_ZERO, DECISION_NONZERO}

    def test_rows_equal_the_protocols_draws_bit_for_bit_across_the_wrap(self):
        n = 5_000
        rho = states.random_density(range(n))
        pair = _pairs(n, 33)
        top = 2**64 - 1_000
        stacked = sample_joint(rho, pair, ShotConfig(shots=5_000, seed=top))
        kinds = [getattr(stacked, field.name).dtype.str for field in fields(stacked)[:-1]]
        assert kinds[:-1] == ["<f8"] * 6 and kinds[-1].startswith("<U")
        for i in range(n):
            cfg = ShotConfig(shots=5_000, seed=(top + i) % 2**64)
            row_pair = ObservablePair(x=pair.x[i], y=pair.y[i])
            assert_row_is_draw(stacked, i, rho[i], row_pair, cfg)

    def test_rows_with_a_marginal_of_zero_or_one_read_zero(self):
        basis = [density_from_pure(amplitudes) for amplitudes in np.eye(4)]
        rho = np.stack((basis + [MAX_MIXED, singlet_rho()]) * 4)
        stacked = sample_joint(rho, ZZ, ShotConfig(shots=1_000, seed=11))
        for i in range(len(rho)):
            assert_row_is_draw(stacked, i, rho[i], ZZ, ShotConfig(1_000, 11 + i))
        basis_rows = np.arange(len(rho)) % 6 < 4
        assert (stacked.covariance_estimate[basis_rows] == 0.0).all()
        assert (stacked.z_score[basis_rows] == 0.0).all()
        assert (stacked.decision[basis_rows] == DECISION_ZERO).all()
        assert (stacked.decision[~basis_rows] == [DECISION_ZERO, DECISION_NONZERO] * 4).all()

    def test_nested_stack_draws_in_c_order(self):
        rho = np.stack([states.random_density(s) for s in range(6)]).reshape(2, 3, 4, 4)
        stacked = sample_joint(rho, ZZ, ShotConfig(shots=1_000, seed=50))
        assert stacked.covariance_estimate.shape == stacked.decision.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert_row_is_draw(stacked, (i, j), rho[i, j], ZZ, ShotConfig(1_000, 50 + 3 * i + j))

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(2**63 - 1)])
    def test_numpy_integer_seed_draws_as_its_int(self, seed):
        pair = ObservablePair(x=np.broadcast_to(Z, (2, 3)), y=Z)
        stacked = sample_joint(states.werner(0.3), pair, ShotConfig(shots=1_000, seed=seed))
        as_int = sample_joint(states.werner(0.3), pair, ShotConfig(shots=1_000, seed=int(seed)))
        assert stacked.covariance_estimate.tolist() == as_int.covariance_estimate.tolist()

    def test_stacked_records_compare_as_one_bool(self):
        pair = ObservablePair(x=np.eye(3), y=Z)
        first, second = (sample_joint(MAX_MIXED, pair, ShotConfig(shots=1_000)) for _ in range(2))
        other = sample_joint(MAX_MIXED, pair, ShotConfig(shots=1_000, seed=1))
        assert (first == second) is True and (first != second) is False
        assert (first == other) is False and (first != other) is True

    def test_empty_stack_gives_empty_arrays(self):
        pair = ObservablePair(x=np.empty((0, 3)), y=Z)
        record = sample_joint(MAX_MIXED, pair, ShotConfig(shots=1_000))
        for field in fields(record)[:-1]:
            assert getattr(record, field.name).shape == (0,)
        assert record.decision.dtype.kind == "U"
        assert type(record.shots_used) is int and record.shots_used == 1_000

    def test_one_state_record_is_pinned(self):
        # Two digests at seeds 0-299.  The bits of every field were taken before sample_joint
        # took stacks, and a one-state call must still give them.  The digest of every field's
        # type and bits was re-taken when a one-state call became the stack of one row, which
        # made every numeric field a Python float.
        typed, bits = hashlib.sha256(), hashlib.sha256()
        for seed in range(300):
            pair = _pairs(1, seed)
            pair = ObservablePair(x=pair.x[0], y=pair.y[0])
            rho = states.random_density(seed)
            for shots in (100, 10_000, 1_000_000):
                record = sample_joint(rho, pair, ShotConfig(shots=shots, seed=seed))
                for field in fields(record):
                    value = getattr(record, field.name)
                    kind = {"decision": str, "shots_used": int}.get(field.name, float)
                    assert type(value) is kind, (seed, shots, field.name)
                    value_bits = value.encode() if kind is str else np.float64(value).tobytes()
                    typed.update(type(value).__name__.encode())
                    typed.update(value_bits)
                    bits.update(value_bits)
        assert bits.hexdigest() == (
            "fe94df7affcc8fadbdbf25ca9c4d9583f9c9a4345ebeccd30152017e046f5b56"
        )
        assert typed.hexdigest() == (
            "e448df27bf93a6d81d1114cef490c6926af16935617080e308e76848a56a6a16"
        )

    def test_z_is_zero_wherever_the_null_standard_error_is_zero(self, monkeypatch):
        # Above 2**53 shots a marginal can round to exactly 1 while the covariance does not
        # round to 0: these counts give m_x = 1.0 and a covariance of -3.47e-17.
        n = 2**60
        degenerate = np.array([0.0, n - 40, 40, 0])
        _, m_x, _, covariance, z_score = one = shotsim._statistics(degenerate, float(n))
        assert (m_x, z_score) == (1.0, 0.0) and isinstance(z_score, np.float64)
        assert covariance == pytest.approx(-3.47e-17, rel=1e-3)
        rows = np.array([degenerate, [n / 4] * 4, degenerate, [n / 2, 0, 0, n / 2]])
        stack = shotsim._statistics(rows, float(n))
        for column, value in zip(stack, one, strict=True):
            assert column[0].tobytes() == column[2].tobytes() == value.tobytes()
        assert stack[-1][1] == 0.0 and stack[-1][3] == pytest.approx(2**30)

        # ShotConfig takes at most 2**53 shots, where no marginal rounds: there (0, n - 1, 1, 0)
        # reads z = sqrt(n), while at 2**54 it reads 0, and a marginal of exactly 1 gives z = 0.
        for n, z in ((2**54, 0.0), (2**53, math.sqrt(2**53))):
            z_score = shotsim._statistics(np.array([0.0, n - 1, 1, 0]), float(n))[-1]
            assert z_score == pytest.approx(z, rel=1e-12, abs=0.0)
        n = 2**53
        rows = np.array([[0.0, n, 0, 0], [n / 4] * 4, [0, n, 0, 0], [0, n - 1, 1, 0]])

        class Counts:  # a generator whose every draw is the next row of counts
            def __init__(self, counts):
                self.counts = counts

            def multinomial(self, shots, probs):
                return self.counts

        monkeypatch.setattr(shotsim, "generators", lambda words: map(Counts, rows))
        cfg = ShotConfig(shots=n, seed=1)
        record = sample_joint(MAX_MIXED, ZZ, cfg)
        assert (record.z_score, record.decision) == (0.0, DECISION_ZERO)
        stack = sample_joint(MAX_MIXED, ObservablePair(x=np.broadcast_to(Z, (4, 3)), y=Z), cfg)
        assert stack.z_score[::2].tolist() == [0.0, 0.0]
        assert stack.z_score[3] == pytest.approx(math.sqrt(n), rel=1e-12)
        assert stack.decision.tolist() == [DECISION_ZERO] * 3 + [DECISION_NONZERO]


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
        # Probe i is drawn at seed + i on the unit copies of x and y, only when it is read.
        calls, draw = [], shotsim._draw

        def counted(probs, cfg, seed):
            calls.append(seed)
            return draw(probs, cfg, seed)

        monkeypatch.setattr(shotsim, "_draw", counted)
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

    @pytest.mark.parametrize("seed", [np.uint64(5), np.int64(2**63 - 1)])
    def test_numpy_integer_seed_gives_its_ints_trace(self, seed):
        # seed + i overflowed a numpy integer: 2**64 has no uint64 or int64 value.
        for rho in (MAX_MIXED, singlet_rho()):
            runs = [
                statistical_binary_protocol(rho, cfg=ShotConfig(shots=1_000, seed=s))
                for s in (seed, int(seed))
            ]
            (verdict, trace), (int_verdict, int_trace) = runs
            assert verdict == int_verdict
            assert [(p.covariance, p.is_zero) for p in trace.probes] == [
                (p.covariance, p.is_zero) for p in int_trace.probes
            ]

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

    def test_traces_are_pinned(self):
        # One digest over each run's label, measurements used, and each probe's covariance type
        # and bits and is_zero, at seeds 0-299 on mixed, Haar and product states with random y
        # and probe sets.  Every fourth base seed sits just below 2**64, where probe seeds wrap.
        # Taken while each probe read was its own sample_joint call.
        digest = hashlib.sha256()
        for seed in range(300):
            rng = np.random.default_rng([seed, 21])
            rhos = [
                states.random_density(seed),
                density_from_pure(states.haar_random_pure(seed)),
                density_from_pure(states.random_product_pure(seed)),
            ]
            base = 2**64 - 1 - seed % 3 if seed % 4 == 0 else seed
            for rho in rhos:
                vectors = rng.standard_normal((4, 3))
                vectors *= rng.uniform(0.3, 1.0, (4, 1)) / np.linalg.norm(vectors, axis=1)[:, None]
                for shots in (100, 10_000, 1_000_000):
                    cfg = ShotConfig(shots=shots, seed=base)
                    verdict, trace = statistical_binary_protocol(
                        rho, y=vectors[0], xs=vectors[1:], cfg=cfg
                    )
                    digest.update(f"{verdict.label}|{trace.measurements_used}".encode())
                    for probe in trace.probes:
                        digest.update(type(probe.covariance).__name__.encode())
                        digest.update(np.float64(probe.covariance).tobytes())
                        digest.update(repr(probe.is_zero).encode())
        assert digest.hexdigest() == (
            "b69446aa597d99e0bdff1cfceda4fd46b513faf15e0862fd800fe09ff702aa6c"
        )

    def test_every_probes_cells_are_checked_before_the_first_draw(self, monkeypatch):
        # Hermitian with unit trace, but not PSD: probe 3's cells hold a negative probability.
        # Probe 1 is non-zero, so the run would stop before reading probe 3.
        draws, draw = [], shotsim._draw
        monkeypatch.setattr(shotsim, "_draw", lambda *args: draws.append(args) or draw(*args))
        corner = np.zeros((4, 4))
        corner[0, 0] = 1.0
        rho = 1.2 * singlet_rho() - 0.2 * corner
        y = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        cfg = ShotConfig(shots=10_000, seed=3)
        with pytest.raises(InvalidState, match="at stack index 2 are not a distribution"):
            statistical_binary_protocol(rho, y=y, xs=np.eye(3), cfg=cfg)
        assert draws == []
