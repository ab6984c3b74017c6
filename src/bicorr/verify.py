"""Self-verification suites: every module's documented invariants, runnable
at a configurable trial count via ``bicorr verify``.

``ALL_CHECKS`` is the single registry of the package's randomized properties:
``bicorr verify`` runs it, and the test suite runs every entry once at seed 0
(tests/test_acceptance.py), with the checks bound to an acceptance criterion at
that criterion's 10,000 states.  At seed 0 those checks draw exactly the
criterion's inputs.

Each check returns (passed, detail).  Trial counts scale the randomized
loops; the statistical suites keep their fixed, calibrated sizes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

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
    classify_pure_by_rank,
    find_zero_correlation_pair,
    ppt_is_separable,
    schmidt_rank,
)
from bicorr.linalg import (
    det3,
    hermitian_eigenvalues,
    numeric_rank,
    orthogonal_complement_basis,
    symmetric3_singular_values,
)
from bicorr.qstate import (
    as_density_matrix,
    bloch_assemble,
    bloch_decompose,
    density_from_pure,
    observable_from_bloch,
    partial_trace_B,
)
from bicorr.shotsim import DECISION_NONZERO, ShotConfig, sample_joint

Z = np.array([0.0, 0.0, 1.0])

Check = Callable[[int, int], tuple[bool, str]]


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def check_spectral_invariants(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 1000)
    worst = 0.0
    for _ in range(n):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (g + g.conj().T) / 2
        w = hermitian_eigenvalues(m)
        if not (np.diff(w) >= 0).all():
            return False, f"eigenvalues not ascending: {w.tolist()}"
        worst = max(
            worst,
            abs(w.sum() - np.trace(m).real),
            abs((w**2).sum() - np.trace(m @ m).real),
        )
    return worst < 1e-8, f"{n} matrices, worst Tr m / Tr m^2 residual {worst:.2e}"


def check_singular_value_transpose(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 1000)
    worst = 0.0
    for _ in range(n):
        m = rng.standard_normal((3, 3))
        diff = symmetric3_singular_values(m) - symmetric3_singular_values(m.T)
        worst = max(worst, float(np.abs(diff).max()))
    return worst < 1e-10, f"{n} matrices, worst asymmetry {worst:.2e}"


def check_determinant_singular_product(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 1000)
    worst = 0.0
    for _ in range(n):
        m = rng.standard_normal((3, 3))
        prod = float(np.prod(symmetric3_singular_values(m)))
        worst = max(worst, abs(abs(det3(m)) - prod) / max(1.0, prod))
    return worst < 1e-9, f"{n} matrices, worst relative mismatch {worst:.2e}"


def check_rank_monotonicity(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 1000)
    for _ in range(n):
        m = rng.standard_normal((3, 3)) * rng.choice([1e-10, 1e-6, 1e-2, 1.0])
        ranks = [numeric_rank(m, tol) for tol in (1e-12, 1e-8, 1e-4, 1e-1, 10.0)]
        if ranks != sorted(ranks, reverse=True):
            return False, f"rank not monotone in tolerance: {ranks}"
    return True, f"{n} matrices, rank monotone over 5 tolerances"


def check_bloch_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for i in range(trials):
        rho = states.random_density(seed + i)
        rebuilt = bloch_assemble(bloch_decompose(rho))
        worst = max(worst, float(np.abs(rebuilt - rho).max()))
    return worst < 1e-10, f"{trials} states, worst round-trip error {worst:.2e}"


def check_pure_state_properties(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for i in range(trials):
        bf = bloch_decompose(density_from_pure(states.haar_random_pure(seed + i)))
        na, nb = np.linalg.norm(bf.a), np.linalg.norm(bf.b)
        residuals = (
            float(np.linalg.norm(bf.f @ bf.b - bf.a)),
            float(np.linalg.norm(bf.f.T @ bf.a - bf.b)),
            abs(na - nb),
            abs(float(np.linalg.det(bf.f)) - (na**2 - 1)),
        )
        worst = max(worst, *residuals)
    return worst < 1e-9, f"{trials} pure states, worst structural residual {worst:.2e}"


def check_product_local_vectors(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for i in range(trials):
        bf = bloch_decompose(density_from_pure(states.random_product_pure(seed + i)))
        worst = max(
            worst,
            abs(float(np.linalg.norm(bf.a)) - 1),
            abs(float(np.linalg.norm(bf.b)) - 1),
        )
    return worst < 1e-9, f"{trials} product states, worst |a|,|b| deviation {worst:.2e}"


def check_partial_trace_consistency(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        rho = states.random_density(seed + i)
        q = observable_from_bloch(_unit(rng) * rng.random())
        lhs = complex(np.trace(partial_trace_B(rho) @ q))
        rhs = complex(np.trace(rho @ np.kron(q, np.eye(2))))
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, f"{trials} states, worst marginal mismatch {worst:.2e}"


def check_covariance_path_equivalence(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 808)  # criterion 7's directions at seed 0
    worst = 0.0
    for i in range(trials):
        rho = states.random_density(seed + i)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        pair = ObservablePair(
            x=x / np.linalg.norm(x) * rng.random(), y=y / np.linalg.norm(y) * rng.random()
        )
        direct = covariance_direct(rho, pair)
        shortcut = covariance_via_c(correlation_matrix(rho), pair)
        worst = max(worst, abs(direct - shortcut))
    return worst < 1e-10, f"{trials} draws, worst path disagreement {worst:.2e}"


def check_covariance_bilinearity(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(min(trials, 2000)):
        cm = correlation_matrix(states.random_density(seed + i))
        x1, x2 = _unit(rng) / 4, _unit(rng) / 4
        y = _unit(rng)
        alpha, beta = rng.random(2)
        combined = covariance_via_c(cm, ObservablePair(x=alpha * x1 + beta * x2, y=y))
        parts = alpha * covariance_via_c(cm, ObservablePair(x=x1, y=y)) + (
            beta * covariance_via_c(cm, ObservablePair(x=x2, y=y))
        )
        worst = max(worst, abs(combined - parts))
    return worst < 1e-12, f"worst bilinearity residual {worst:.2e}"


def check_pure_rank_dichotomy(trials: int, seed: int) -> tuple[bool, str]:
    for i in range(trials):
        psi = states.haar_random_pure(seed + i)
        cm = correlation_matrix(density_from_pure(psi))
        if cm.rank not in (0, 3):
            return False, f"seed {seed + i}: rank {cm.rank}"
        if (cm.rank == 0) != (schmidt_rank(psi) == 1):
            return False, f"seed {seed + i}: rank/Schmidt disagreement"
    for i in range(trials):
        psi = states.random_product_pure(seed + i)
        if correlation_matrix(density_from_pure(psi)).rank != 0:
            return False, f"product seed {seed + i}: non-zero rank"
        if schmidt_rank(psi) != 1:
            return False, f"product seed {seed + i}: Schmidt rank 2"
    return True, f"{trials} random + {trials} product states, rank always 0 or 3"


def check_pure_determinant_identity(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for i in range(trials):
        rho = density_from_pure(states.haar_random_pure(seed + i))
        cm = correlation_matrix(rho)
        nb = float(np.linalg.norm(bloch_decompose(rho).b))
        worst = max(worst, abs(det3(cm.c) + (nb**2 - 1) ** 2))
    return worst < 1e-9, f"{trials} pure states, worst determinant residual {worst:.2e}"


def check_classifier_oracle_agreement(trials: int, seed: int) -> tuple[bool, str]:
    for i in range(trials):
        psi = states.haar_random_pure(seed + i)
        rank_label = classify_pure_by_rank(psi).label
        schmidt_label = SEPARABLE if schmidt_rank(psi) == 1 else ENTANGLED
        if rank_label != schmidt_label:
            return False, f"seed {seed + i}: {rank_label} vs {schmidt_label}"
    for i in range(trials):
        psi = states.random_product_pure(seed + i)
        if classify_pure_by_rank(psi).label != SEPARABLE or schmidt_rank(psi) != 1:
            return False, f"product seed {seed + i} misclassified"
    return True, f"{2 * trials} states, zero disagreements"


def check_protocol_soundness(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for i in range(trials):
        psi = states.haar_random_pure(seed + i)
        y = _unit(rng)
        while True:
            xs = rng.standard_normal((3, 3))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            if det3(xs @ xs.T) > 1e-3:
                break
        verdict, _ = binary_protocol(density_from_pure(psi), y=y, xs=xs)
        if verdict.label != classify_pure_by_rank(psi).label:
            return False, f"seed {seed + i}: protocol/classifier disagreement"
    return True, f"{trials} pure states, protocol matches the rank classifier"


def check_two_probe_insufficiency(trials: int, seed: int) -> tuple[bool, str]:
    n = min(trials, 1000)
    count = 0
    i = 0
    while count < n:
        psi = states.haar_random_pure(seed + i)
        i += 1
        rho = density_from_pure(psi)
        cm = correlation_matrix(rho)
        if cm.rank != 3:
            continue
        count += 1
        x1, x2 = orthogonal_complement_basis(cm.c @ Z)
        for x in (x1, x2):
            if abs(covariance_direct(rho, ObservablePair(x=x, y=Z))) >= 1e-10:
                return False, f"seed {seed + i - 1}: silent probe pair leaked signal"
    return True, f"{n} entangled states admit two independent all-zero probes"


def check_zero_pair_universality(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 404)  # criterion 5's directions at seed 0
    worst = 0.0
    for i in range(trials):
        rho = (
            states.random_separable_mixed(seed + i, 1 + i % 4)
            if i % 2
            else states.random_mixed(seed + i, 2 + i % 4)
        )
        pair = find_zero_correlation_pair(rho, _unit(rng))
        worst = max(worst, abs(covariance_direct(rho, pair)))
    for xi in (0.0, 0.2, 1 / 3, 0.5, 1.0):
        rho = states.werner(xi)
        pair = find_zero_correlation_pair(rho, Z)
        worst = max(worst, abs(covariance_direct(rho, pair)))
    return worst < 1e-10, f"{trials} mixed states + Werner grid, worst |c| {worst:.2e}"


def _werner_zero_pattern(xi: float, pairs: list[ObservablePair]) -> list[bool]:
    rho = states.werner(xi)
    return [abs(covariance_direct(rho, p)) < 1e-12 for p in pairs]


def _zero_set_grid(seed: int) -> list[ObservablePair]:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(50):
        pairs.append(ObservablePair(x=_unit(rng), y=_unit(rng)))
    for _ in range(50):
        y = _unit(rng)
        pairs.append(ObservablePair(x=orthogonal_complement_basis(y)[0], y=y))
    return pairs


def check_werner_zero_set_identity(trials: int, seed: int) -> tuple[bool, str]:
    pairs = _zero_set_grid(seed)
    orthogonal = [abs(p.x @ p.y) < 1e-9 for p in pairs]
    for xi in (0.1, 0.3, 0.4, 0.9):
        if _werner_zero_pattern(xi, pairs) != orthogonal:
            return False, f"xi={xi}: zero set differs from the x.y = 0 set"
    return True, "zero sets match x.y = 0 at xi = 0.1, 0.3, 0.4, 0.9 (100 pairs)"


def check_generator_validity(trials: int, seed: int) -> tuple[bool, str]:
    n = max(trials // 10, 10)
    for i in range(n):
        as_density_matrix(density_from_pure(states.haar_random_pure(seed + i)))
        as_density_matrix(density_from_pure(states.random_product_pure(seed + i)))
        sep = states.random_separable_mixed(seed + i, 1 + i % 5)
        as_density_matrix(sep)
        if not ppt_is_separable(sep):
            return False, f"separable mixture {seed + i} failed its PPT check"
        as_density_matrix(states.random_mixed(seed + i, 1 + i % 5))
    return True, f"{n} draws per generator all pass state validation"


def check_werner_bloch_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for xi in np.linspace(0.0, 1.0, 21):
        bf = bloch_decompose(states.werner(float(xi)))
        worst = max(
            worst,
            float(np.abs(bf.a).max()),
            float(np.abs(bf.b).max()),
            float(np.abs(bf.f + xi * np.eye(3)).max()),
        )
    return worst < 1e-12, f"21 xi values, worst Bloch deviation {worst:.2e}"


def check_generator_determinism(trials: int, seed: int) -> tuple[bool, str]:
    for s in (seed, seed + 1, seed + 12345):
        if not np.array_equal(states.haar_random_pure(s), states.haar_random_pure(s)):
            return False, f"haar generator not reproducible at seed {s}"
        if not np.array_equal(
            states.random_separable_mixed(s, 3), states.random_separable_mixed(s, 3)
        ):
            return False, f"separable generator not reproducible at seed {s}"
    return True, "repeated draws are bit-identical"


def check_shot_unbiasedness(trials: int, seed: int) -> tuple[bool, str]:
    rho = density_from_pure(states.bell_state("psi-"))
    pair = ObservablePair(x=Z, y=Z)
    records = [
        sample_joint(rho, pair, ShotConfig(shots=10_000, seed=seed + i))
        for i in range(200)
    ]
    mean = float(np.mean([r.covariance_estimate for r in records]))
    combined = math.sqrt(sum(r.standard_error**2 for r in records)) / 200
    deviation = abs(mean + 0.25)
    return deviation < 3 * combined, (
        f"200 seeds, mean {mean:.9f}, |dev| {deviation:.2e} vs 3 SE {3 * combined:.2e}"
    )


def check_shot_se_scaling(trials: int, seed: int) -> tuple[bool, str]:
    pair = ObservablePair(x=Z, y=np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
    rho = density_from_pure(states.bell_state("psi-"))
    ses = {
        n: sample_joint(rho, pair, ShotConfig(shots=n, seed=seed)).standard_error
        for n in (1_000, 10_000, 100_000)
    }
    r1 = ses[1_000] / ses[10_000] / math.sqrt(10)
    r2 = ses[10_000] / ses[100_000] / math.sqrt(10)
    ok = abs(r1 - 1) < 0.2 and abs(r2 - 1) < 0.2
    return ok, f"SE ratios vs sqrt(10): {r1:.3f}, {r2:.3f}"


def check_shot_determinism(trials: int, seed: int) -> tuple[bool, str]:
    cfg = ShotConfig(shots=5_000, seed=seed)
    pair = ObservablePair(x=Z, y=Z)
    first = sample_joint(states.werner(0.6), pair, cfg)
    second = sample_joint(states.werner(0.6), pair, cfg)
    return first == second, "identical configs give bit-identical records"


def check_shot_false_positive_rate(trials: int, seed: int) -> tuple[bool, str]:
    pair = ObservablePair(x=Z, y=Z)
    mixed = np.eye(4, dtype=complex) / 4
    hits = 0
    for i in range(1000):
        record = sample_joint(
            mixed, pair, ShotConfig(shots=10_000, seed=seed + i, z_threshold=3.0)
        )
        hits += record.decision == DECISION_NONZERO
    return hits < 10, f"{hits}/1000 false non-zero calls at z = 3"


ALL_CHECKS: list[tuple[str, Check]] = [
    ("linalg: spectral invariants", check_spectral_invariants),
    ("linalg: singular values of transpose", check_singular_value_transpose),
    ("linalg: |det| equals product of singular values", check_determinant_singular_product),
    ("linalg: rank monotone in tolerance", check_rank_monotonicity),
    ("qstate: Bloch round trip", check_bloch_round_trip),
    ("qstate: pure-state structural identities", check_pure_state_properties),
    ("qstate: product states have unit local vectors", check_product_local_vectors),
    ("qstate: partial-trace consistency", check_partial_trace_consistency),
    ("correlation: covariance path equivalence", check_covariance_path_equivalence),
    ("correlation: bilinearity", check_covariance_bilinearity),
    ("correlation: pure-state rank dichotomy", check_pure_rank_dichotomy),
    ("correlation: pure-state determinant identity", check_pure_determinant_identity),
    ("detect: classifier agrees with Schmidt oracle", check_classifier_oracle_agreement),
    ("detect: protocol soundness on pure states", check_protocol_soundness),
    ("detect: two probes are insufficient", check_two_probe_insufficiency),
    ("detect: zero-correlation pair universality", check_zero_pair_universality),
    ("detect: Werner zero sets identical across xi", check_werner_zero_set_identity),
    ("states: generator outputs validate", check_generator_validity),
    ("states: Werner Bloch round trip", check_werner_bloch_round_trip),
    ("states: generators are deterministic", check_generator_determinism),
    ("shotsim: estimator unbiasedness", check_shot_unbiasedness),
    ("shotsim: standard error scales as 1/sqrt(shots)", check_shot_se_scaling),
    ("shotsim: bit-identical reruns", check_shot_determinism),
    ("shotsim: false-positive control", check_shot_false_positive_rate),
]


def run_all(trials: int = 2000, seed: int = 0, out=print) -> bool:
    """Run every suite; emits one pass/fail line per check via ``out``."""
    if trials < 100:
        raise ValueError("trial budget below 100 is rejected")
    all_ok = True
    for name, check in ALL_CHECKS:
        ok, detail = check(trials, seed)
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
