"""Self-verification suites: every module's documented invariants, runnable
at a configurable trial count via ``bicorr verify``.

``ALL_CHECKS`` is the single registry of the package's randomized properties:
``bicorr verify`` runs it, and the test suite runs every entry once at seed 0
(tests/test_acceptance.py), with the checks bound to an acceptance criterion at
that criterion's 10,000 states.  At seed 0 those checks draw exactly the
criterion's inputs.

Each check returns (passed, detail).  Trial counts scale the randomized
loops, which run on per-seed states stacked in blocks of ``BLOCK``; the
statistical suites keep their fixed, calibrated sizes.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

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
    find_zero_correlation_pair,
    ppt_is_separable,
    rank_says_entangled,
    schmidt_rank,
)
from bicorr.linalg import (
    det3,
    hermitian_eigenvalues,
    norms,
    numeric_rank,
    orthogonal_complement_basis,
    symmetric3_singular_values,
)
from bicorr.qstate import (
    CheckedState,
    as_density_matrix,
    bloch_assemble,
    bloch_decompose,
    density_from_pure,
    observable_from_bloch,
    partial_trace_B,
)
from bicorr.shotsim import DECISION_NONZERO, ShotConfig, sample_joint

Z = np.array([0.0, 0.0, 1.0])
BLOCK = 8192  # states per stack, so memory stays bounded at any trial count

Check = Callable[[int, int], tuple[bool, str]]


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _blocks(seed: int, n: int):
    """The seeds seed, ..., seed + n - 1 as consecutive ranges of at most BLOCK."""
    return (range(seed + i, seed + min(n, i + BLOCK)) for i in range(0, n, BLOCK))


def _stack(draw: Callable[..., np.ndarray], params: Iterable) -> np.ndarray:
    return np.stack([draw(p) for p in params])


def _pure(draw: Callable[[int], np.ndarray], seeds: range) -> tuple[np.ndarray, CheckedState]:
    psi = _stack(draw, seeds)
    return psi, CheckedState(density_from_pure(psi))


def _rank_labels(rho: CheckedState) -> np.ndarray:
    return np.where(rank_says_entangled(correlation_matrix(rho)), ENTANGLED, SEPARABLE)


def check_spectral_invariants(trials: int, seed: int) -> tuple[bool, str]:
    n = min(trials, 1000)
    re, im = np.random.default_rng(seed).standard_normal((n, 2, 4, 4)).swapaxes(0, 1)
    g = re + 1j * im  # the real, then the imaginary part of each matrix in turn
    m = (g + g.conj().swapaxes(-1, -2)) / 2
    w = hermitian_eigenvalues(m)
    ascending = (np.diff(w) >= 0).all(axis=-1)
    if not ascending.all():
        return False, f"eigenvalues not ascending: {w[np.argmin(ascending)].tolist()}"
    worst = max(
        np.abs(w.sum(-1) - np.trace(m, axis1=-2, axis2=-1).real).max(),
        np.abs((w**2).sum(-1) - np.trace(m @ m, axis1=-2, axis2=-1).real).max(),
    )
    return worst < 1e-8, f"{n} matrices, worst Tr m / Tr m^2 residual {worst:.2e}"


def check_singular_value_transpose(trials: int, seed: int) -> tuple[bool, str]:
    n = min(trials, 1000)
    m = np.random.default_rng(seed).standard_normal((n, 3, 3))
    diff = symmetric3_singular_values(m) - symmetric3_singular_values(m.swapaxes(-1, -2))
    worst = float(np.abs(diff).max())
    return worst < 1e-10, f"{n} matrices, worst asymmetry {worst:.2e}"


def check_determinant_singular_product(trials: int, seed: int) -> tuple[bool, str]:
    n = min(trials, 1000)
    m = np.random.default_rng(seed).standard_normal((n, 3, 3))
    prod = np.prod(symmetric3_singular_values(m), axis=-1)
    worst = float((np.abs(np.abs(det3(m)) - prod) / np.maximum(1.0, prod)).max())
    return worst < 1e-9, f"{n} matrices, worst relative mismatch {worst:.2e}"


def check_rank_monotonicity(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 1000)
    scales = [1e-10, 1e-6, 1e-2, 1.0]
    m = np.array([rng.standard_normal((3, 3)) * rng.choice(scales) for _ in range(n)])
    ranks = np.array([numeric_rank(m, tol) for tol in (1e-12, 1e-8, 1e-4, 1e-1, 10.0)])
    rising = (np.diff(ranks, axis=0) > 0).any(axis=0)
    if rising.any():
        return False, f"rank not monotone in tolerance: {ranks[:, np.argmax(rising)].tolist()}"
    return True, f"{n} matrices, rank monotone over 5 tolerances"


def check_bloch_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = CheckedState(_stack(states.random_density, seeds))
        rebuilt = bloch_assemble(bloch_decompose(rho))
        worst = max(worst, float(np.abs(rebuilt - rho.matrix).max()))
    return worst < 1e-10, f"{trials} states, worst round-trip error {worst:.2e}"


def check_pure_state_properties(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        bf = bloch_decompose(_pure(states.haar_random_pure, seeds)[1])
        na, nb = norms(bf.a), norms(bf.b)
        residuals = (
            norms((bf.f @ bf.b[..., None])[..., 0] - bf.a),
            norms((bf.f.swapaxes(-1, -2) @ bf.a[..., None])[..., 0] - bf.b),
            np.abs(na - nb),
            np.abs(np.linalg.det(bf.f) - (na**2 - 1)),
        )
        worst = max(worst, *(float(r.max()) for r in residuals))
    return worst < 1e-9, f"{trials} pure states, worst structural residual {worst:.2e}"


def check_product_local_vectors(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        bf = bloch_decompose(_pure(states.random_product_pure, seeds)[1])
        worst = max(worst, float(np.abs(norms(np.stack([bf.a, bf.b])) - 1).max()))
    return worst < 1e-9, f"{trials} product states, worst |a|,|b| deviation {worst:.2e}"


def check_partial_trace_consistency(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = CheckedState(_stack(states.random_density, seeds))
        q = observable_from_bloch(np.array([_unit(rng) * rng.random() for _ in seeds]))
        lhs = np.trace(partial_trace_B(rho) @ q, axis1=-2, axis2=-1)
        rhs = np.trace(rho.matrix @ np.kron(q, np.eye(2)), axis1=-2, axis2=-1)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst < 1e-10, f"{trials} states, worst marginal mismatch {worst:.2e}"


def _ball_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    return x / np.linalg.norm(x) * rng.random(), y / np.linalg.norm(y) * rng.random()


def check_covariance_path_equivalence(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 808)  # criterion 7's directions at seed 0
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = CheckedState(_stack(states.random_density, seeds))
        pair = ObservablePair(*np.array([_ball_pair(rng) for _ in seeds]).swapaxes(0, 1))
        direct = covariance_direct(rho, pair)
        shortcut = covariance_via_c(correlation_matrix(rho), pair)
        worst = max(worst, float(np.abs(direct - shortcut).max()))
    return worst < 1e-10, f"{trials} draws, worst path disagreement {worst:.2e}"


def check_covariance_bilinearity(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 2000)
    cm = correlation_matrix(CheckedState(_stack(states.random_density, range(seed, seed + n))))
    draws = [(_unit(rng) / 4, _unit(rng) / 4, _unit(rng), *rng.random(2)) for _ in range(n)]
    x1, x2, y, alpha, beta = (np.array(column) for column in zip(*draws))
    x = alpha[:, None] * x1 + beta[:, None] * x2
    combined = covariance_via_c(cm, ObservablePair(x=x, y=y))
    parts = alpha * covariance_via_c(cm, ObservablePair(x=x1, y=y)) + (
        beta * covariance_via_c(cm, ObservablePair(x=x2, y=y))
    )
    worst = float(np.abs(combined - parts).max())
    return worst < 1e-12, f"worst bilinearity residual {worst:.2e}"


def check_pure_rank_dichotomy(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for draw in (states.haar_random_pure, states.random_product_pure):
        for seeds in _blocks(seed, trials):
            psi, rho = _pure(draw, seeds)
            k = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])  # concurrence
            expected = np.stack([k, k, k**2], axis=-1)
            error = np.abs(correlation_matrix(rho).singular_values - expected)
            worst = max(worst, float(error.max()))
    return worst < 1e-12, (
        f"{trials} random + {trials} product states, "
        f"worst |sigma(c) - (k, k, k^2)| {worst:.2e}"
    )


def check_pure_determinant_identity(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = _pure(states.haar_random_pure, seeds)[1]
        cm = correlation_matrix(rho)
        nb = norms(bloch_decompose(rho).b)
        worst = max(worst, float(np.abs(det3(cm.c) + (nb**2 - 1) ** 2).max()))
    return worst < 1e-9, f"{trials} pure states, worst determinant residual {worst:.2e}"


def check_classifier_oracle_agreement(trials: int, seed: int) -> tuple[bool, str]:
    for seeds in _blocks(seed, trials):
        psi, rho = _pure(states.haar_random_pure, seeds)
        by_rank = _rank_labels(rho)
        by_schmidt = np.where(schmidt_rank(psi) == 1, SEPARABLE, ENTANGLED)
        if (by_rank != by_schmidt).any():
            i = np.argmax(by_rank != by_schmidt)
            return False, f"seed {seeds[i]}: {by_rank[i]} vs {by_schmidt[i]}"
    for seeds in _blocks(seed, trials):
        psi, rho = _pure(states.random_product_pure, seeds)
        bad = (_rank_labels(rho) != SEPARABLE) | (schmidt_rank(psi) != 1)
        if bad.any():
            return False, f"product seed {seeds[np.argmax(bad)]} misclassified"
    return True, f"{2 * trials} states, zero disagreements"


def check_protocol_soundness(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for seeds in _blocks(seed, trials):
        rho = _pure(states.haar_random_pure, seeds)[1]
        labels = _rank_labels(rho)
        for i, s in enumerate(seeds):
            y = _unit(rng)
            while True:
                xs = rng.standard_normal((3, 3))
                xs /= np.linalg.norm(xs, axis=1, keepdims=True)
                if det3(xs @ xs.T) > 1e-3:
                    break
            verdict, _ = binary_protocol(rho[i], y=y, xs=xs)
            if verdict.label != labels[i]:
                return False, f"seed {s}: protocol/classifier disagreement"
    return True, f"{trials} pure states, protocol matches the rank classifier"


def check_two_probe_insufficiency(trials: int, seed: int) -> tuple[bool, str]:
    n = min(trials, 1000)
    count, seeds = 0, range(seed, seed)
    while count < n:  # the first n entangled states from seed on
        seeds = range(seeds.stop, seeds.stop + n - count)
        rho = _pure(states.haar_random_pure, seeds)[1]
        cm = correlation_matrix(rho)
        full = np.flatnonzero(rank_says_entangled(cm))
        count += len(full)
        rho = rho[full]
        leak = np.any([
            np.abs(covariance_direct(rho, ObservablePair(x=x, y=Z))) >= 1e-10
            for x in orthogonal_complement_basis(cm.c[full] @ Z)
        ], axis=0)
        if leak.any():
            return False, f"seed {seeds[full[np.argmax(leak)]]}: silent probe pair leaked signal"
    return True, f"{n} entangled states admit two independent all-zero probes"


def check_zero_pair_universality(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 404)  # criterion 5's directions at seed 0
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = CheckedState(np.stack([
            states.random_separable_mixed(s, 1 + (s - seed) % 4)
            if (s - seed) % 2
            else states.random_mixed(s, 2 + (s - seed) % 4)
            for s in seeds
        ]))
        pair = find_zero_correlation_pair(rho, np.array([_unit(rng) for _ in seeds]))
        worst = max(worst, float(np.abs(covariance_direct(rho, pair)).max()))
    rho = CheckedState(_stack(states.werner, (0.0, 0.2, 1 / 3, 0.5, 1.0)))
    pair = find_zero_correlation_pair(rho, Z)
    worst = max(worst, float(np.abs(covariance_direct(rho, pair)).max()))
    return worst < 1e-10, f"{trials} mixed states + Werner grid, worst |c| {worst:.2e}"


def _zero_set_grid(seed: int) -> ObservablePair:
    rng = np.random.default_rng(seed)
    random_x, random_y = np.array([(_unit(rng), _unit(rng)) for _ in range(50)]).swapaxes(0, 1)
    y = np.array([_unit(rng) for _ in range(50)])
    x = np.concatenate([random_x, orthogonal_complement_basis(y)[0]])
    return ObservablePair(x=x, y=np.concatenate([random_y, y]))


def check_werner_zero_set_identity(trials: int, seed: int) -> tuple[bool, str]:
    pairs = _zero_set_grid(seed)
    orthogonal = np.abs(np.einsum("...i,...i->...", pairs.x, pairs.y)) < 1e-9
    for xi in (0.1, 0.3, 0.4, 0.9):
        zero = np.abs(covariance_direct(states.werner(xi), pairs)) < 1e-12
        if not np.array_equal(zero, orthogonal):
            return False, f"xi={xi}: zero set differs from the x.y = 0 set"
    return True, "zero sets match x.y = 0 at xi = 0.1, 0.3, 0.4, 0.9 (100 pairs)"


def check_generator_validity(trials: int, seed: int) -> tuple[bool, str]:
    n = max(trials // 10, 10)
    for seeds in _blocks(seed, n):
        as_density_matrix(density_from_pure(_stack(states.haar_random_pure, seeds)))
        as_density_matrix(density_from_pure(_stack(states.random_product_pure, seeds)))
        sep = as_density_matrix(
            np.stack([states.random_separable_mixed(s, 1 + (s - seed) % 5) for s in seeds])
        )
        separable = ppt_is_separable(sep)
        if not separable.all():
            return False, f"separable mixture {seeds[np.argmin(separable)]} failed its PPT check"
        as_density_matrix(np.stack([states.random_mixed(s, 1 + (s - seed) % 5) for s in seeds]))
    return True, f"{n} draws per generator all pass state validation"


def check_werner_bloch_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    xi = np.linspace(0.0, 1.0, 21)
    bf = bloch_decompose(_stack(states.werner, xi))
    f_dev = bf.f + xi[:, None, None] * np.eye(3)
    worst = float(max(np.abs(bf.a).max(), np.abs(bf.b).max(), np.abs(f_dev).max()))
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
    rho = CheckedState(density_from_pure(states.bell_state("psi-")))
    pair = ObservablePair(x=Z, y=Z)
    records = [
        sample_joint(rho, pair, ShotConfig(shots=10_000, seed=(seed + i) % 2**64))
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
    rho = CheckedState(density_from_pure(states.bell_state("psi-")))
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
    rho = CheckedState(states.werner(0.6))
    first = sample_joint(rho, pair, cfg)
    second = sample_joint(rho, pair, cfg)
    return first == second, "identical configs give bit-identical records"


def check_shot_false_positive_rate(trials: int, seed: int) -> tuple[bool, str]:
    pair = ObservablePair(x=Z, y=Z)
    mixed = CheckedState(np.eye(4, dtype=complex) / 4)
    hits = 0
    for i in range(1000):
        record = sample_joint(
            mixed, pair, ShotConfig(shots=10_000, seed=(seed + i) % 2**64, z_threshold=3.0)
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
    """Run every suite; emits one pass/fail line per check via ``out``.

    trials must be an integer of at least 100 and seed one in [0, 2**64); both are checked
    before the first check runs.
    """
    if not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trial count must be an integer, got {trials!r}")
    if trials < 100:
        raise ValueError("trial budget below 100 is rejected")
    ShotConfig(seed=seed)  # the shot checks' seeds, (seed + i) mod 2**64, need seed in [0, 2**64)
    all_ok = True
    for name, check in ALL_CHECKS:
        ok, detail = check(trials, seed)
        all_ok &= ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
