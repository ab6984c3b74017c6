"""Acceptance suite: the binding end-to-end checks of the package.

Each test covers one criterion, runs it at its frozen tolerance, enforces the
runtime budget, and prints a single summary line on success.  Failures show up
as ordinary pytest failures.

The randomized properties live once, in ``bicorr.verify.ALL_CHECKS``, and
every entry runs here once at seed 0.  Criteria 3, 5 and 7 run their registry
entries by name; ``test_registry_check`` runs the rest.  The entries that carry
a criterion run at the criterion's 10,000 states, which at seed 0 are exactly
the criterion's inputs; every other entry runs at 1,000 trials.
"""

import math
import time

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
    ENTANGLED,
    SEPARABLE,
    binary_protocol,
    ppt_is_separable,
    schmidt_rank,
)
from bicorr.linalg import det3, orthogonal_complement_basis
from bicorr.qstate import bloch_decompose, density_from_pure
from bicorr.shotsim import DECISION_NONZERO, ShotConfig, sample_joint
from bicorr.verify import ALL_CHECKS

Z = np.array([0.0, 0.0, 1.0])
N_STATES = 10_000
REGISTRY_TRIALS = 1000
CHECKS = dict(ALL_CHECKS)
# Registry checks that a criterion test below runs by name.
CRITERION_CHECKS = {
    "criterion 3": "correlation: pure-state rank dichotomy",
    "criterion 5": "detect: zero-correlation pair universality",
    "criterion 7": "correlation: covariance path equivalence",
}
# Registry checks that carry a criterion and run in test_registry_check.
CRITERION_OF = {
    "detect: classifier agrees with Schmidt oracle": "criterion 3",
    "detect: two probes are insufficient": "criterion 4",
}


class Budget:
    """Wall-clock guard for a criterion."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds {self.seconds}s"
        return elapsed


def _passed(name: str, elapsed: float, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\n[acceptance] {name}: PASS ({elapsed:.2f}s){suffix}")


def _run_check(name: str, trials: int, label: str) -> None:
    budget = Budget(30.0)
    ok, detail = CHECKS[name](trials, 0)
    assert ok, detail
    _passed(label, budget.check(), detail)


def _unit_grid(count: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    vectors = [np.eye(3)[i] for i in range(3)]
    while len(vectors) < count:
        v = rng.standard_normal(3)
        vectors.append(v / np.linalg.norm(v))
    return vectors[:count]


@pytest.fixture(scope="module")
def haar_states():
    return [states.haar_random_pure(seed) for seed in range(N_STATES)]


@pytest.fixture(scope="module")
def product_states():
    return [states.random_product_pure(seed) for seed in range(N_STATES)]


def test_criterion_1_singlet_fixture():
    budget = Budget(1.0)
    rho = density_from_pure(states.bell_state("psi-"))
    bf = bloch_decompose(rho)
    assert np.abs(bf.a).max() < 1e-12
    assert np.abs(bf.b).max() < 1e-12
    assert np.abs(bf.f + np.eye(3)).max() < 1e-12
    cm = correlation_matrix(rho)
    assert np.abs(cm.c + np.eye(3)).max() < 1e-12

    xs = _unit_grid(20, seed=101)
    ys = _unit_grid(20, seed=202)
    worst = 0.0
    for x, y in zip(xs, ys):
        pair = ObservablePair(x=x, y=y)
        expected = -0.25 * float(x @ y)
        worst = max(worst, abs(covariance_direct(rho, pair) - expected))
        worst = max(worst, abs(covariance_via_c(cm, pair) - expected))
    assert worst < 1e-12
    _passed("criterion 1 (singlet fixture)", budget.check(), f"worst |dc| {worst:.1e}")


def test_criterion_2_chen_fixture():
    budget = Budget(1.0)
    rho = density_from_pure(states.chen_state())
    bf = bloch_decompose(rho)
    assert np.abs(bf.a - np.array([2, 0, 1]) / 3).max() < 1e-12
    assert np.abs(bf.b - np.array([2, 0, -1]) / 3).max() < 1e-12
    cm = correlation_matrix(rho)
    expected_c = (2 / 9) * np.array([[1, 0, -2], [0, -3, 0], [2, 0, 2]])
    assert np.abs(cm.c - expected_c).max() < 1e-12

    det_c = det3(cm.c)
    assert abs(det_c + 16 / 81) < 1e-12
    b_norm_sq = float(np.linalg.norm(bf.b) ** 2)
    assert abs(det_c + (b_norm_sq - 1) ** 2) < 1e-12

    # Zero plane for y = e1: span{(2,0,-1), (0,1,0)}.
    y = np.array([1.0, 0.0, 0.0])
    u = np.array([2.0, 0.0, -1.0]) / math.sqrt(5.0)
    v = np.array([0.0, 1.0, 0.0])
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10):
        theta = rng.random() * 2 * math.pi
        x = math.cos(theta) * u + math.sin(theta) * v
        worst = max(worst, abs(covariance_direct(rho, ObservablePair(x=x, y=y))))
    assert worst < 1e-12
    _passed("criterion 2 (Chen fixture)", budget.check(), f"worst |c| {worst:.1e}")


def test_criterion_3_rank_dichotomy():
    # The classifier half of criterion 3 is the registry check
    # "detect: classifier agrees with Schmidt oracle".
    name = CRITERION_CHECKS["criterion 3"]
    _run_check(name, N_STATES, f"criterion 3 ({name})")


def test_criterion_4_three_probe_protocol(haar_states, product_states):
    budget = Budget(30.0)
    for psi in haar_states + product_states:
        verdict, _ = binary_protocol(density_from_pure(psi))
        expected = SEPARABLE if schmidt_rank(psi) == 1 else ENTANGLED
        assert verdict.label == expected
    _passed("criterion 4 (three-probe protocol)", budget.check(), f"{2 * N_STATES} verdicts")


def test_criterion_5_zero_pair_universality():
    name = CRITERION_CHECKS["criterion 5"]
    _run_check(name, N_STATES, f"criterion 5 ({name})")


def test_criterion_6_werner_case_study():
    budget = Budget(10.0)
    xs = _unit_grid(20, seed=505)
    ys = _unit_grid(20, seed=606)
    pairs = [ObservablePair(x=x, y=y) for x, y in zip(xs, ys)]

    worst = 0.0
    for xi in np.linspace(0.0, 1.0, 101):
        rho = states.werner(float(xi))
        for pair in pairs:
            expected = -float(xi) / 4 * float(pair.x @ pair.y)
            worst = max(worst, abs(covariance_direct(rho, pair) - expected))
    assert worst < 1e-12

    for xi in list(np.linspace(0.0, 1.0, 101)) + [1 / 3 - 1e-3, 1 / 3 + 1e-3]:
        rho = states.werner(float(xi))
        if xi <= 1 / 3 - 1e-3:
            assert ppt_is_separable(rho)
        elif xi >= 1 / 3 + 1e-3:
            assert not ppt_is_separable(rho)
        np.testing.assert_allclose(correlation_matrix(rho).c, -float(xi) * np.eye(3), atol=1e-12)

    # Zero-correlation pair sets at a separable and an entangled xi match the
    # x.y = 0 characterization pair-for-pair.
    rng = np.random.default_rng(707)
    grid = []
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        grid.append(ObservablePair(x=x / np.linalg.norm(x), y=y / np.linalg.norm(y)))
    for _ in range(50):
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        grid.append(ObservablePair(x=orthogonal_complement_basis(y)[0], y=y))
    orthogonal = [abs(p.x @ p.y) < 1e-9 for p in grid]
    for xi in (0.2, 0.9):
        pattern = [
            abs(covariance_direct(states.werner(xi), p)) < 1e-12 for p in grid
        ]
        assert pattern == orthogonal
    _passed(
        "criterion 6 (Werner case study)",
        budget.check(),
        f"101 xi x 20 pairs, worst |dc| {worst:.1e}; PPT flips at 1/3",
    )


def test_criterion_7_covariance_path_equivalence():
    name = CRITERION_CHECKS["criterion 7"]
    _run_check(name, N_STATES, f"criterion 7 ({name})")


def test_criterion_8_shot_simulator():
    budget = Budget(120.0)
    singlet = density_from_pure(states.bell_state("psi-"))
    zz = ObservablePair(x=Z, y=Z)

    # Unbiasedness: 200 seeds at 1e5 shots.
    records = [
        sample_joint(singlet, zz, ShotConfig(shots=100_000, seed=seed))
        for seed in range(200)
    ]
    mean = float(np.mean([r.covariance_estimate for r in records]))
    combined_se = math.sqrt(sum(r.standard_error**2 for r in records)) / 200
    assert abs(mean + 0.25) < 3 * combined_se
    assert all(r.decision == DECISION_NONZERO for r in records)

    # 1/sqrt(N) convergence on a fixture with non-degenerate shot noise.
    tilted = ObservablePair(x=Z, y=np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
    ses = {
        n: sample_joint(singlet, tilted, ShotConfig(shots=n, seed=11)).standard_error
        for n in (1_000, 10_000, 100_000)
    }
    assert abs(ses[1_000] / ses[10_000] / math.sqrt(10) - 1) < 0.2
    assert abs(ses[10_000] / ses[100_000] / math.sqrt(10) - 1) < 0.2

    # False-positive control on an exact-zero input at z = 3.
    mixed = np.eye(4, dtype=complex) / 4
    hits = sum(
        sample_joint(
            mixed, zz, ShotConfig(shots=10_000, seed=seed, z_threshold=3.0)
        ).decision
        == DECISION_NONZERO
        for seed in range(1000)
    )
    assert hits / 1000 < 0.01
    _passed(
        "criterion 8 (shot simulator)",
        budget.check(),
        f"mean dev {abs(mean + 0.25):.1e} vs 3SE {3 * combined_se:.1e}; "
        f"false positives {hits}/1000",
    )


REGISTRY_CASES = [
    name for name, _ in ALL_CHECKS if name not in CRITERION_CHECKS.values()
]


@pytest.mark.parametrize("name", REGISTRY_CASES, ids=REGISTRY_CASES)
def test_registry_check(name):
    trials = N_STATES if name in CRITERION_OF else REGISTRY_TRIALS
    label = f"{CRITERION_OF[name]} ({name})" if name in CRITERION_OF else name
    _run_check(name, trials, label)
