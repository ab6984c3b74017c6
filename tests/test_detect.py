"""Tests for the decision layer: zero-pair construction, rank classifier,
three-probe protocol, Schmidt and PPT oracles, and the Werner case study."""

import collections

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
    ZeroVector,
    _DEFAULT_PROBES,
    _GRAM_MESSAGE,
    _check_probes,
    _check_probes_in_order,
    _check_y,
    binary_protocol,
    classify_pure_by_rank,
    exact_protocol,
    find_zero_correlation_pair,
    ppt_is_separable,
    pure_rank_verdict,
    rank_says_entangled,
    schmidt_rank,
)
from bicorr.linalg import (
    BALL_TOL,
    GRAM_TOL,
    ZERO_CORRELATION_TOL,
    _directions,
    det3,
    directions,
    norms,
    orthogonal_complement_basis,
)
from bicorr.qstate import (
    BlochOutOfBall,
    CheckedState,
    _check_norm,
    _reals,
    _require,
    check_bloch_components,
    density_from_pure,
    partial_transpose_b,
    purity,
)
from bicorr.shotsim import ShotConfig, statistical_binary_protocol

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

    @pytest.mark.parametrize("y", [(1e-158, 3.3e-159, 0.0), (2e-158, 1e-159, 0.0)])
    def test_tiny_y_gives_a_unit_x(self, y):
        # |c y|^2 underflows here; x must still be a unit vector the public pair accepts.
        rho = density_from_pure(states.bell_state("psi-"))
        pair = find_zero_correlation_pair(rho, np.array(y))
        ObservablePair(pair.x, pair.y)
        assert abs(np.linalg.norm(pair.x) - 1) < 1e-15
        assert abs(covariance_via_c(correlation_matrix(rho), pair)) < ZERO_CORRELATION_TOL * max(y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "psi, y, y_hat",
        [
            (states.bell_state("psi-"), (5e-324, 5e-324, 0.0), (2**-0.5, 2**-0.5, 0.0)),
            (states.random_product_pure(3), (1e-320, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ],
        ids=["singlet", "product"],
    )
    def test_subnormal_y_gives_a_unit_x(self, psi, y, y_hat):
        # The singlet's x had length 1.414 here; the product state's was nan, as 1e-10 |y| is 0.
        rho = density_from_pure(psi)
        pair = find_zero_correlation_pair(rho, np.array(y))
        ObservablePair(pair.x, pair.y)
        assert np.isfinite(pair.x).all() and abs(np.linalg.norm(pair.x) - 1) < 1e-15
        value = covariance_via_c(correlation_matrix(rho), ObservablePair(pair.x, np.array(y_hat)))
        assert abs(value) <= ZERO_CORRELATION_TOL


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


    @pytest.mark.parametrize(
        "concurrence, label", [(1e-9, SEPARABLE), (4e-9, ENTANGLED)], ids=["1e-9", "4e-9"]
    )
    def test_every_read_of_the_rank_cut_sits_between_1e_9_and_4e_9(self, concurrence, label):
        # cos t|00> + sin t|11> has concurrence sin 2t; the cut is at 2e-9, so a tenfold move of
        # it either way flips one of these two states.
        t = 0.5 * np.arcsin(concurrence)
        psi = np.array([np.cos(t), 0.0, 0.0, np.sin(t)])
        cm = CheckedState(density_from_pure(psi)).cm
        assert rank_says_entangled(cm) is (label == ENTANGLED)
        assert pure_rank_verdict(cm).label == label
        assert classify_pure_by_rank(psi).label == label
        assert schmidt_rank(psi) == (2 if label == ENTANGLED else 1)


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
        assert abs(trace.probes[0].covariance + 0.25) < 1e-12  # c(e1, y/|y|)

    def test_short_y_product_state_stays_separable(self):
        rho = density_from_pure(states.random_product_pure(3))
        verdict, trace = binary_protocol(rho, y=SHORT_Y)
        assert verdict.label == SEPARABLE
        assert all(p.is_zero for p in trace.probes)

    @pytest.mark.parametrize("protocol", [binary_protocol, statistical_binary_protocol])
    @pytest.mark.parametrize("length", [1e-160, 1e-165, 1e-170])
    def test_tiny_y_is_a_direction(self, protocol, length):
        # |y|^2 underflows; the exact call is per unit length, the shot call on unit copies.
        y = np.array([length, 0.0, 0.0])
        verdict, trace = protocol(density_from_pure(states.bell_state("psi-")), y=y)
        assert (verdict.label, trace.measurements_used) == (ENTANGLED, 1)
        verdict, trace = protocol(density_from_pure(states.random_product_pure(3)), y=y)
        assert (verdict.label, trace.measurements_used) == (SEPARABLE, 3)

    @pytest.mark.parametrize("scale", [0.01, 1e-170])
    def test_short_probes_are_independent(self, scale):
        # Independence is judged on the directions: the Gram determinant of 0.01 I is 1e-12.
        rho = density_from_pure(states.bell_state("psi-"))
        verdict, trace = binary_protocol(rho, xs=scale * DEFAULT_XS)
        assert (verdict.label, trace.measurements_used) == (ENTANGLED, 3)

    @pytest.mark.parametrize("protocol", [binary_protocol, statistical_binary_protocol])
    def test_two_probes_are_not_a_probe_set(self, protocol):
        message = r"^need exactly 3 probe vectors, got shape \(2, 3\)$"
        with pytest.raises(DependentProbes, match=message):
            protocol(states.werner(0.5), xs=np.eye(3)[:2])

    @pytest.mark.filterwarnings("error")
    def test_a_zero_probe_is_dependent(self):
        xs = np.eye(3)
        xs[1] = 0.0
        with pytest.raises(DependentProbes, match=r"Gram determinant 0\.000e\+00"):
            binary_protocol(states.werner(0.5), xs=xs)

    def test_the_oracle_is_called_once_and_read_to_the_first_non_zero(self):
        calls, reads = [], []

        def oracle(xs, y):
            calls.append((xs, y))
            for value in (0.0, 0.5, 1.0):
                reads.append(value)
                yield value, value == 0.0

        rho = density_from_pure(states.bell_state("psi-"))
        verdict, trace = binary_protocol(rho, y=0.5 * Z, corr_oracle=oracle)
        assert len(calls) == 1 and calls[0][0].shape == (3, 3)
        assert np.array_equal(calls[0][1], Z)  # the oracle receives the direction of y
        assert reads == [0.0, 0.5]
        assert [(p.covariance, p.is_zero) for p in trace.probes] == [(0.0, True), (0.5, False)]
        assert (verdict.label, trace.measurements_used) == (ENTANGLED, 2)

    @pytest.mark.parametrize("protocol", [binary_protocol, statistical_binary_protocol])
    @pytest.mark.parametrize(
        "y, scale", [((5e-324, 0.0, 0.0), 1.0), ((1e-165, 0.0, 0.0), 1e-165)], ids=["y", "xy"]
    )
    def test_probes_too_short_for_the_bound(self, protocol, y, scale):
        # ZERO_CORRELATION_TOL |x| |y| and c itself underflow to 0; the call is on the directions.
        y, xs = np.array(y), scale * DEFAULT_XS
        verdict, trace = protocol(density_from_pure(states.bell_state("psi-")), y=y, xs=xs)
        assert (verdict.label, trace.measurements_used) == (ENTANGLED, 1)
        verdict, trace = protocol(density_from_pure(states.random_product_pure(3)), y=y, xs=xs)
        assert (verdict.label, trace.measurements_used) == (SEPARABLE, 3)

    @pytest.mark.parametrize("y", [(5e-324, 5e-324, 0.0), (3e-320, 2e-320, 1e-320)])
    def test_subnormal_y_gives_the_exact_label_in_the_shot_protocol(self, y):
        # y is a direction in both routes; the shot route raised NonUnitBloch on y / |y|.
        cfg, y = ShotConfig(shots=10_000, seed=1), np.array(y)
        singlet, product = states.bell_state("psi-"), states.random_product_pure(3)
        for psi, label in ((singlet, ENTANGLED), (product, SEPARABLE)):
            rho = density_from_pure(psi)
            assert binary_protocol(rho, y=y)[0].label == label
            assert statistical_binary_protocol(rho, y=y, cfg=cfg)[0].label == label

    def test_both_routes_report_the_covariance_of_the_directions(self):
        # The exact route reported c(0.5 e3, 0.5 Z) = -0.0625; the shot route samples directions.
        rho, n = density_from_pure(states.bell_state("psi-")), 100_000
        y, xs = 0.5 * Z, 0.5 * DEFAULT_XS
        _, exact = binary_protocol(rho, y=y, xs=xs)
        _, shots = statistical_binary_protocol(rho, y=y, xs=xs, cfg=ShotConfig(shots=n))
        assert exact.measurements_used == shots.measurements_used == 3
        assert abs(exact.probes[2].covariance + 0.25) < 1e-12
        # The singlet's Z, Z cells give -m (1 - m) n / (n - 1), m ~ Binomial(n, 1/2) / n.
        standard_error = np.sqrt(2) / (4 * n)
        assert abs(shots.probes[2].covariance - exact.probes[2].covariance) <= 5 * standard_error

    @pytest.mark.parametrize("items", [0, 2])
    def test_an_oracle_that_runs_short_raises(self, items):
        def oracle(xs, y):
            return [(0.0, True)] * items

        with pytest.raises(ValueError, match="zip"):
            binary_protocol(states.werner(0.2), corr_oracle=oracle)

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
    def test_rejects_a_stack_of_probe_sets(self, protocol):
        rho = density_from_pure(states.bell_state("psi-"))
        message = r"^the protocol takes one probe set, got shape \(2, 3, 3\)$"
        with pytest.raises(ValueError, match=message):
            protocol(rho, xs=np.stack([DEFAULT_XS, DEFAULT_XS]))

    @pytest.mark.parametrize("protocol", [binary_protocol, statistical_binary_protocol])
    def test_rejects_a_stack_of_states(self, protocol):
        rho = np.stack([states.werner(0.2), states.werner(0.8)])
        with pytest.raises(ValueError, match=rf"^{ONE_STATE} \(2, 4, 4\) and \(3,\)$"):
            protocol(rho)


def _per_probe(cm, xs, y):
    """Each probe's covariance and zero call on its direction, one ``ObservablePair`` at a time."""
    calls = []
    for x in xs:
        value = covariance_via_c(cm, ObservablePair(x / np.linalg.norm(x), y / np.linalg.norm(y)))
        calls.append((value, bool(abs(value) <= ZERO_CORRELATION_TOL)))
    return calls


@pytest.mark.parametrize(
    "draw, n", [(states.random_density, 2000), (states.random_product_pure, 200)],
    ids=["random_density", "product"],
)
def test_exact_oracle_equals_the_per_probe_rule(draw, n):
    # The exact rule gives each probe's covariance and zero call bit for bit: every probe in
    # exact_protocol's c, and in binary_protocol's trace up to its first non-zero call.
    rng = np.random.default_rng(37)
    y = rng.standard_normal(3)
    y *= 1e-11 / np.linalg.norm(y)
    for seed in range(n):
        rho = draw(seed)
        rho = density_from_pure(rho) if rho.shape == (4,) else rho
        cm = correlation_matrix(rho)
        xs = rng.standard_normal((3, 3))
        xs *= (rng.random(3) / np.linalg.norm(xs, axis=1))[:, None]
        expected = _per_probe(cm, xs, y)
        _, used, values = exact_protocol(rho, y=y, xs=xs)
        assert values.tolist() == [v for v, _ in expected], seed
        assert used == next((i + 1 for i, (_, z) in enumerate(expected) if not z), 3)
        _, trace = binary_protocol(rho, y=y, xs=xs)
        calls = [(p.covariance, p.is_zero) for p in trace.probes]
        assert calls == expected[: len(calls)], seed
        assert all(type(v) is float and type(z) is bool for v, z in calls)
        assert all(z for _, z in calls[:-1])  # the trace stops at the first non-zero call


def _protocol_runs(n: int, seed: int):
    """n Haar, n product and n mixed states, each with a random y and random probes.

    For the Haar states, every third run takes its first probe, and every third its first two,
    in the plane orthogonal to C y^, so those runs read zeros before their non-zero probe.
    """
    rng = np.random.default_rng(seed)
    seeds = range(seed, seed + n)
    rho = np.concatenate([
        density_from_pure(states.haar_random_pure(seeds)),
        density_from_pure(states.random_product_pure(seeds)),
        states.random_mixed(seeds, 1 + np.arange(n) % 4),
    ])
    y = directions(rng.standard_normal((3 * n, 3))) * rng.random((3 * n, 1))
    xs = directions(rng.standard_normal((3 * n, 3, 3))) * rng.random((3 * n, 3, 1))
    c_y = (correlation_matrix(rho[:n]).c @ directions(y[:n])[..., None])[..., 0]
    plane = orthogonal_complement_basis(c_y)
    for zeros in (1, 2):
        rows = np.arange(zeros, n, 3)
        for i in range(zeros):
            xs[rows, i] = 0.5 * plane[i][rows]
    units = directions(xs)
    keep = det3(units @ units.swapaxes(-1, -2)) > 1e-6  # drop the rare dependent draw
    return rho[keep], y[keep], xs[keep]


def test_exact_protocol_equals_the_one_state_protocol_run_by_run():
    rho, y, xs = _protocol_runs(2000, 41)
    labels, used, covariances = exact_protocol(rho, y=y, xs=xs)
    assert labels.shape == used.shape == (len(rho),) and covariances.shape == (len(rho), 3)
    for i in range(len(rho)):
        verdict, trace = binary_protocol(rho[i], y=y[i], xs=xs[i])
        assert (labels[i], used[i]) == (verdict.label, trace.measurements_used), i
        read = np.array([p.covariance for p in trace.probes])
        assert read.tobytes() == covariances[i, : len(read)].tobytes(), i
    assert set(labels) == {ENTANGLED, SEPARABLE, INDETERMINATE}
    assert set(used) == {1, 2, 3}


def test_exact_protocol_broadcasts_one_state_against_a_stack_of_y():
    rho = density_from_pure(states.bell_state("psi-"))
    y = np.stack([Z, SHORT_Y, np.array([0.0, 0.3, 0.0])])
    labels, used, covariances = exact_protocol(rho, y=y)
    assert labels.tolist() == [ENTANGLED] * 3 and used.tolist() == [3, 1, 2]
    assert exact_protocol(rho)[2].tolist() == covariances[0].tolist()


@pytest.mark.parametrize("row", [0, 17])
def test_exact_protocol_names_the_run_that_fails_its_check(row):
    rho, y, xs = _protocol_runs(10, 5)
    y[row] = 0.0
    with pytest.raises(ZeroVector, match=rf"^y at stack index {row} must be non-zero"):
        exact_protocol(rho, y=y, xs=xs)
    y[row], xs[row, 2] = 0.3, -0.5 * xs[row, 0]
    with pytest.raises(DependentProbes, match=rf"^probe Gram determinant at stack index {row} "):
        exact_protocol(rho, y=y, xs=xs)


@pytest.mark.parametrize(
    "q, label", [(2.5e-10, ENTANGLED), (1e-9, INDETERMINATE)], ids=["5e-10", "2e-9"]
)
def test_both_reads_of_the_purity_cut_sit_between_5e_10_and_2e_9(q, label):
    # (1 - q) singlet + q |00><00| has 1 - Tr rho^2 = 2q - 2q^2 and the singlet's c = -1/4 at
    # probe 3; the cut is at 1e-9, so a tenfold move of either protocol's read flips one state.
    rho = (1 - q) * density_from_pure(states.bell_state("psi-"))
    rho[0, 0] += q
    assert 1.0 - purity(rho) == pytest.approx(2 * q, rel=1e-6)
    verdict, trace = binary_protocol(rho)
    assert (verdict.label, trace.measurements_used) == (label, 3)
    labels, used, _ = exact_protocol(rho)
    assert (labels, used) == (label, 3)


@pytest.mark.parametrize(
    "c, label", [(5e-11, SEPARABLE), (2e-10, ENTANGLED)], ids=["5e-11", "2e-10"]
)
def test_the_zero_cut_sits_between_5e_11_and_2e_10(c, label):
    # cos t|00> + sin t|11> reads 0 at probes 1-2 and c = sin^2(2t) / 4 at probe 3 (z against z);
    # the cut is at 1e-10, so a tenfold move of it either way flips one of these two states.
    # The first state is entangled (concurrence sin 2t = 1.4e-5), yet both protocols call it
    # Separable: this pins today's cut and its resolution gap (ROADMAP.md, certified verdicts).
    # Moving the cut is a contract change, made on purpose together with this test.
    t = 0.5 * np.arcsin(np.sqrt(4 * c))
    rho = density_from_pure(np.array([np.cos(t), 0.0, 0.0, np.sin(t)]))
    verdict, trace = binary_protocol(rho)
    covariances = [p.covariance for p in trace.probes]
    assert covariances[:2] == [0.0, 0.0] and covariances[2] == pytest.approx(c, rel=1e-6)
    assert (verdict.label, trace.measurements_used) == (label, 3)
    labels, used, values = exact_protocol(rho)
    assert (labels, used, values.tolist()) == (label, 3, covariances)


def test_exact_protocol_of_an_empty_stack_is_empty():
    rho, y, xs = _protocol_runs(10, 5)
    labels, used, covariances = exact_protocol(rho[:0], y=y[:0], xs=xs[:0])
    assert labels.shape == used.shape == (0,) and covariances.shape == (0, 3)
    labels, used, covariances = exact_protocol(rho[:0])
    assert labels.shape == used.shape == (0,) and covariances.shape == (0, 3)


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
    at = {"probe set": " at stack index 0", "y": ""}[which]  # the probe set is a stack of 3
    with pytest.raises(BlochOutOfBall, match=f"^{which}{at} component 1e\\+200 exceeds 1"):
        binary_protocol(rho, y=y, xs=xs)


OUT = [0.9, 0.9, 0.0]  # components in range, length 1.27
DEP = [[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]]
EYE = np.eye(3).tolist()


# Inputs with more than one fault, and the error each raises: y's shape, components, length and
# zero test, then the probe set's shape, components, Gram determinant and lengths, each over the
# whole stack before the next.  Taken from the probe check before it shared its lengths.
@pytest.mark.parametrize(
    "y, xs, error, message",
    [
        ([np.nan, 0, 0], DEP, BlochOutOfBall, "y component nan exceeds 1"),
        ([0, -np.inf, 0], DEP, BlochOutOfBall, "y component inf exceeds 1"),
        ([0, 0, 0], [OUT, [0, 1, 0], [0, 0, 1]], ZeroVector, "y must be non-zero"),
        ([0, 1e300, 0], [[1, 0, 0], [0, 1, 0]], BlochOutOfBall, "y component 1e+300 exceeds 1"),
        ([0.8, 0.8, 0], np.eye(4), BlochOutOfBall, "y norm 1.1313708498984762 exceeds 1"),
        ([0.5, 0.5], [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]], ValueError,
         "y needs 3 components, got 2"),
        ([0, 0, 1], [OUT, OUT, [0, 0, 1]], DependentProbes,
         "probe Gram determinant 0.000e+00 is not above 1e-09"),
        ([0, 0, 1], [[0, 0, 0], OUT, [0, 0, 1]], DependentProbes,
         "probe Gram determinant 0.000e+00 is not above 1e-09"),
        ([0, 0, 1], [[0.3, 0.4, 0], [0.3, 0.4, 1e-6], [0.9, 0, 0.9]], DependentProbes,
         "probe Gram determinant 1.280e-12 is not above 1e-09"),
        ([0, 0, 1], [[0.3, 0.4, 0], [-0.3, -0.4, 1e-5], [0, 0.9, 0.9]], DependentProbes,
         "probe Gram determinant 7.200e-11 is not above 1e-09"),
        ([0, 0, 1], [[np.nan, 0, 0], [1, 0, 0], [1, 0, 0]], BlochOutOfBall,
         "probe set at stack index 0 component nan exceeds 1"),
        ([0, 0, 1], [OUT, [0, 2.0, 0], [0, 0, 1]], BlochOutOfBall,
         "probe set at stack index 1 component 2.0 exceeds 1"),
        ([[0, 0, 1], OUT, [0, 5.0, 0]], EYE, BlochOutOfBall,
         "y at stack index 2 component 5.0 exceeds 1"),
        ([[0, 0, 0], OUT], EYE, BlochOutOfBall,
         "y at stack index 1 norm 1.2727922061357855 exceeds 1"),
        ([[0, 0, 1], [0, 0, 0]], [DEP, EYE], ZeroVector, "y at stack index 1 must be non-zero"),
        ([0, 0, 1], [[OUT, [0, 1, 0], [0, 0, 1]], DEP], DependentProbes,
         "probe Gram determinant at stack index 1 0.000e+00 is not above 1e-09"),
        ([0, 0, 1], [EYE, DEP, [[0, 0, 3.0], [0, 1, 0], [1, 0, 0]]], BlochOutOfBall,
         "probe set at stack index 2, 0 component 3.0 exceeds 1"),
        ([[0, 0, 1], OUT, [0, 1, 0]], [EYE, EYE, [OUT, [0, 1, 0], [0, 0, 1]]], BlochOutOfBall,
         "y at stack index 1 norm 1.2727922061357855 exceeds 1"),
    ],
)
def test_the_first_fault_in_check_order_is_raised(y, xs, error, message):
    y, xs = np.array(y, dtype=float), np.array(xs, dtype=float)
    with pytest.raises(error) as raised:
        _check_probes(y, xs)
    assert (type(raised.value), str(raised.value)) == (error, message)
    if y.shape == (3,) and xs.ndim == 2:  # one run: each protocol raises the same error
        rho = np.eye(4) / 4
        runs = (binary_protocol, exact_protocol, statistical_binary_protocol)
        for protocol in runs:
            with pytest.raises(error) as raised:
                protocol(rho, y, xs)
            assert (type(raised.value), str(raised.value)) == (error, message)


def _ordered_probe_check(y, xs):
    """The probe check before its one pass, as ordered checks, kept here as the test's reference."""
    y, y_length = _check_y(y)
    xs = _reals(xs, "probe set")
    if xs.shape[-2:] != (3, 3):
        raise DependentProbes(f"need exactly 3 probe vectors, got shape {xs.shape}")
    check_bloch_components(xs, "probe set")
    lengths = norms(xs)
    units = _directions(xs, lengths)
    gram = det3(units) ** 2
    _require(np.where(gram > GRAM_TOL, -np.inf, gram), -np.inf, DependentProbes, _GRAM_MESSAGE)
    _check_norm(lengths, "x")
    return y, xs, _directions(y, y_length), units


def _edge_factor(rng) -> float:
    """An excess over 1 in units of BALL_TOL: at, just around, below or past the bound of 1."""
    return float(rng.choice([0.0, 0.5, 1.0 - 1e-4, 1.0, 1.0 + 1e-4, 1.5, 2.0, -1.0]))


def _faulty_row(rng, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """One run's (y, xs) of the given kind: valid, or with one fault of that kind."""
    vectors = directions(rng.standard_normal((4, 3)))
    if rng.random() < 0.5:  # inside the ball, not only on its surface
        vectors *= rng.random((4, 1)) ** (1 / 3)
    row, col = rng.integers(4), rng.integers(3)
    if kind == "non-finite":
        vectors[row, col] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "edge component":
        vectors[row, col] = rng.choice([-1.0, 1.0]) * (1.0 + BALL_TOL * _edge_factor(rng))
    elif kind == "edge length":
        vectors[row] = directions(vectors[row]) * (1.0 + BALL_TOL * _edge_factor(rng))
    elif kind == "huge":
        vectors[row, col] = rng.choice([1e200, -1e300, 1.7e308])
    elif kind == "zero y":
        vectors[3] = rng.choice([0.0, -0.0, 5e-324, 1e-170, 2.0**-600], 3) * (rng.random(3) < 0.7)
    elif kind == "tiny vector":  # exponents straddling the cutoffs of ``_directions``
        vectors[row] = vectors[row] * 2.0 ** -rng.integers(200, 1080)
    elif kind == "dependent":
        i, j, k = rng.permutation(3)
        tilt = rng.choice([0.0, 1e-7, 1e-6, 1e-5, 3e-5, 3.2e-5, 1e-4, 1e-3]) * rng.random()
        vectors[k] = 0.4 * vectors[i] - 0.3 * vectors[j] + tilt * rng.standard_normal(3)
    elif kind == "zero x":
        vectors[rng.integers(3)] = 0.0
    return vectors[3], vectors[:3]


ROW_KINDS = (
    "valid", "valid", "valid", "non-finite", "edge component", "edge length", "huge", "zero y",
    "tiny vector", "dependent", "zero x",
)


def _probe_case(rng) -> tuple:
    """A seeded (y, xs): one run or a stack of runs of mixed kinds, some of odd shape or layout."""
    stack = [(), (0,), (1,), (2,), (3,), (5,), (2, 2)][rng.integers(7)]
    rows = [_faulty_row(rng, ROW_KINDS[rng.integers(len(ROW_KINDS))]) for _ in range(
        int(np.prod(stack, dtype=int)))]
    y = np.array([r[0] for r in rows]).reshape(stack + (3,))
    xs = np.array([r[1] for r in rows]).reshape(stack + (3, 3))
    shape = rng.integers(12)
    if shape == 0:  # a y or probe set of the wrong shape
        y = y[..., :2] if rng.random() < 0.5 else np.concatenate([y, y[..., :1]], axis=-1)
    elif shape == 1:
        xs = [xs[..., :2, :], xs[..., :2], xs[..., 0, :], np.concatenate([xs, xs], axis=-1)][
            rng.integers(4)]
    elif shape == 2 and y.size:  # stacks that do not match: one broadcasts, or neither
        y = y.reshape(-1, 3)[0] if rng.random() < 0.5 else np.concatenate([y, y], axis=0)
    elif shape == 3:  # non-contiguous arrays of the same values
        y = np.repeat(y, 2, axis=-1)[..., ::2]
        xs = np.asfortranarray(xs)
    elif shape == 4:
        y, xs = y.tolist(), xs.tolist()
    elif shape == 5 and rng.random() < 0.1:  # a probe set that is no array at all
        xs = [[1.0, 0.0, 0.0], [0.0, 1.0]]
    return y, xs


def _check_outcome(check, y, xs):
    """The returned arrays as (shape, bytes), or the raised error as (type, message)."""
    try:
        return [(a.shape, a.dtype.str, a.tobytes()) for a in check(y, xs)]
    except Exception as exc:  # any error: its type and message are what is compared
        return type(exc), str(exc)


def test_one_pass_probe_check_matches_the_ordered_checks():
    rng = np.random.default_rng(20260)
    outcomes = collections.Counter()
    for _ in range(20_000):
        y, xs = _probe_case(rng)
        expected = _check_outcome(_ordered_probe_check, y, xs)
        assert _check_outcome(_check_probes, y, xs) == expected, (y, xs)
        outcomes[expected[0] if isinstance(expected, tuple) else "accepted"] += 1
    kinds = {"accepted", ValueError, BlochOutOfBall, ZeroVector, DependentProbes}
    assert set(outcomes) == kinds and min(outcomes.values()) > 200, outcomes


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


BELLS = ("phi+", "phi-", "psi+", "psi-")
FIXTURE_RHOS = [density_from_pure(states.bell_state(which)) for which in BELLS]
FIXTURE_RHOS += [density_from_pure(states.chen_state())]
FIXTURE_RHOS += [density_from_pure(states.random_product_pure(3))]
FIXTURE_RHOS += [states.werner(xi) for xi in (0.0, 0.2, 1 / 3, 0.5, 1.0)]
SHOTS = ShotConfig(shots=10_000, seed=3)


@pytest.mark.parametrize(
    "row, col, value",
    [(1, 2, 0.0), (3, 0, 0.0), (0, 1, 1e-300), (3, 2, 1e-300), (2, 1, 1.5e-323)],
    ids=["zero-x-component", "zero-y-component", "1e-300-in-x", "1e-300-in-y", "subnormal-in-x"],
)
def test_a_tiny_component_gets_the_bits_of_the_ordered_checks(row, col, value):
    # Below 2**-255 the one pass leaves the division to ``_directions``' route test.  Row 2 is
    # (1, 1.5e-323, 0): divided by its length directly its second component stays 1.5e-323, but
    # the rescale that other input takes rounds it to 2e-323.
    vectors = directions(np.random.default_rng(row + 4 * col).standard_normal((4, 3)))
    if value == 1.5e-323:
        vectors[row] = [1.0, 0.0, 0.0]
    vectors[row, col] = value
    y, xs = vectors[3], vectors[:3]
    expected = _check_outcome(_check_probes_in_order, y, xs)
    assert isinstance(expected, list)  # accepted
    assert _check_outcome(_check_probes, y, xs) == expected


def _run_bits(verdict, trace) -> tuple:
    """A protocol run as comparable values, each array as its bytes."""
    probes = [(p.x.tobytes(), np.float64(p.covariance).tobytes(), p.is_zero) for p in trace.probes]
    return verdict, trace.y.tobytes(), probes


def test_default_probes_are_the_bits_of_a_fresh_check():
    fresh = _check_probes(DEFAULT_Y.copy(), DEFAULT_XS.copy())
    assert _check_probes(DEFAULT_Y, DEFAULT_XS) is _DEFAULT_PROBES
    assert [a.tobytes() for a in _DEFAULT_PROBES] == [a.tobytes() for a in fresh]
    assert [a.shape for a in _DEFAULT_PROBES] == [a.shape for a in fresh]


@pytest.mark.parametrize(
    "protocol",
    [binary_protocol, lambda rho, *probes: statistical_binary_protocol(rho, *probes, cfg=SHOTS)],
    ids=["exact", "shots"],
)
def test_default_probes_give_the_runs_of_equal_copies(protocol):
    for rho in FIXTURE_RHOS:
        copies = protocol(rho, DEFAULT_Y.copy(), DEFAULT_XS.copy())
        assert _run_bits(*protocol(rho)) == _run_bits(*copies)


def test_exact_protocol_on_default_probes_gives_the_runs_of_equal_copies():
    rho = np.stack(FIXTURE_RHOS)
    runs = exact_protocol(rho)
    copies = exact_protocol(rho, DEFAULT_Y.copy(), DEFAULT_XS.copy())
    assert [a.tobytes() for a in runs] == [a.tobytes() for a in copies]


@pytest.mark.parametrize("target", ["y", "x"])
def test_a_default_trace_is_read_only(target):
    rho = density_from_pure(states.chen_state())
    before = _run_bits(*binary_protocol(rho))
    _, trace = binary_protocol(rho)
    with pytest.raises(ValueError, match="read-only"):
        if target == "y":
            trace.y[2] = 0.0
        else:
            trace.probes[0].x[0] = 0.0
    assert _run_bits(*binary_protocol(rho)) == before


@pytest.mark.parametrize("target", ["xs", "y"])
def test_an_oracle_that_writes_into_its_inputs_raises(target):
    rho = density_from_pure(states.chen_state())
    before = _run_bits(*binary_protocol(rho))

    def oracle(xs, y):
        (xs[0] if target == "xs" else y)[0] = 0.5
        return [(0.0, True)] * 3

    with pytest.raises(ValueError, match="read-only"):
        binary_protocol(rho, corr_oracle=oracle)
    assert _run_bits(*binary_protocol(rho)) == before


@pytest.mark.parametrize("t, x", [(5e-11, [1.0, 0.0, 0.0]), (2e-10, [0.0, 1.0, 0.0])])
def test_the_zero_pair_falls_back_to_the_first_axis_below_1e_10(t, x):
    # (I + t Z (x) Z)/4 has C z = (0, 0, t): below ZERO_CORRELATION_TOL x is the first axis,
    # above it the first vector of the plane orthogonal to C z.
    rho = np.diag([1 + t, 1 - t, 1 - t, 1 + t]).astype(complex) / 4
    pair = find_zero_correlation_pair(rho, [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(pair.x, x)
