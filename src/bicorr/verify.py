"""Self-verification suites: every module's documented invariants, runnable
at a configurable trial count via ``bicorr verify``.

``ALL_CHECKS`` is the single registry of the package's randomized properties:
``bicorr verify`` runs it, and the test suite runs every entry once at seed 0
(tests/test_acceptance.py), with the checks bound to an acceptance criterion at
that criterion's 10,000 states; those checks are the criteria's definition.

Each check returns (passed, detail).  Trial counts scale the randomized
checks: per block of ``BLOCK`` seeds, each makes one generator call and one
draw of its random directions, and calls each kernel once, ``exact_protocol``
included.  In a one-block ``run_all``, checks that draw the same states from
the same seeds share one read-only stack.  The statistical suites keep their
fixed, calibrated sizes.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
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
    exact_protocol,
    find_zero_correlation_pair,
    ppt_is_separable,
    rank_says_entangled,
    schmidt_rank,
)
from bicorr.linalg import (
    det3,
    directions,
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
_memo: ContextVar[dict | None] = ContextVar("memo", default=None)  # a one-block run_all's stacks


def _blocks(seed: int, n: int):
    """The seeds seed, ..., seed + n - 1 as consecutive ranges of at most BLOCK."""
    return (range(seed + i, seed + min(n, i + BLOCK)) for i in range(0, n, BLOCK))


def _units(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random unit 3-vectors, normalized with the bits of np.linalg.norm."""
    return directions(rng.standard_normal((n, 3)))


def _worst(*residuals) -> float:
    """The largest entry of the residuals, nan if any is nan (Python's max would drop a nan)."""
    return float(np.max([np.max(r) for r in residuals]))


def _balls(rng: np.random.Generator, n: int) -> np.ndarray:
    """n vectors in the unit ball: n unit directions, then n uniform radii."""
    return _units(rng, n) * rng.random(n)[:, None]


def _per_run(draw):
    """draw, except that in a one-block run_all a repeated call returns the first call's stack."""
    def shared(*args):
        if (memo := _memo.get()) is None:
            return draw(*args)
        key = (draw, *args)
        return memo[key] if key in memo else memo.setdefault(key, draw(*args))
    return shared


@_per_run
def _pure(draw: Callable[[range], np.ndarray], seeds: range) -> tuple[np.ndarray, CheckedState]:
    psi = draw(seeds)
    psi.flags.writeable = False
    return psi, CheckedState(density_from_pure(psi))


@_per_run
def _density(seeds: range) -> CheckedState:
    return CheckedState(states.random_density(seeds))


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
    worst = _worst(
        np.abs(w.sum(-1) - np.trace(m, axis1=-2, axis2=-1).real),
        np.abs((w**2).sum(-1) - np.trace(m @ m, axis1=-2, axis2=-1).real),
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
    m = rng.standard_normal((n, 3, 3)) * rng.choice([1e-10, 1e-6, 1e-2, 1.0], n)[:, None, None]
    ranks = np.array([numeric_rank(m, tol) for tol in (1e-12, 1e-8, 1e-4, 1e-1, 10.0)])
    rising = (np.diff(ranks, axis=0) > 0).any(axis=0)
    if rising.any():
        return False, f"rank not monotone in tolerance: {ranks[:, np.argmax(rising)].tolist()}"
    return True, f"{n} matrices, rank monotone over 5 tolerances"


def check_bloch_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = _density(seeds)
        worst = _worst(worst, np.abs(bloch_assemble(bloch_decompose(rho)) - rho.matrix))
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
        worst = _worst(worst, *residuals)
    return worst < 1e-9, f"{trials} pure states, worst structural residual {worst:.2e}"


def check_product_local_vectors(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        bf = bloch_decompose(_pure(states.random_product_pure, seeds)[1])
        worst = _worst(worst, np.abs(norms(np.stack([bf.a, bf.b])) - 1))
    return worst < 1e-9, f"{trials} product states, worst |a|,|b| deviation {worst:.2e}"


def check_partial_trace_consistency(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = _density(seeds)
        q = observable_from_bloch(_balls(rng, len(seeds)))
        lhs = np.trace(partial_trace_B(rho) @ q, axis1=-2, axis2=-1)
        rhs = np.trace(rho.matrix @ np.kron(q, np.eye(2)), axis1=-2, axis2=-1)
        worst = _worst(worst, np.abs(lhs - rhs))
    return worst < 1e-10, f"{trials} states, worst marginal mismatch {worst:.2e}"


def check_covariance_path_equivalence(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 808)  # criterion 7's directions at seed 0
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = _density(seeds)
        pair = ObservablePair(x=_balls(rng, len(seeds)), y=_balls(rng, len(seeds)))
        direct = covariance_direct(rho, pair)
        shortcut = covariance_via_c(correlation_matrix(rho), pair)
        worst = _worst(worst, np.abs(direct - shortcut))
    return worst < 1e-10, f"{trials} draws, worst path disagreement {worst:.2e}"


def check_covariance_bilinearity(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    n = min(trials, 2000)
    cm = correlation_matrix(_density(range(seed, seed + n)))
    x1, x2, y = _units(rng, 3 * n).reshape(3, n, 3)
    alpha, beta = rng.random((2, n)) / 4  # so that |alpha x1 + beta x2| <= 1/2
    combined, c1, c2 = (
        covariance_via_c(cm, ObservablePair(x=x, y=y))
        for x in (alpha[:, None] * x1 + beta[:, None] * x2, x1, x2)
    )
    worst = float(np.abs(combined - (alpha * c1 + beta * c2)).max())
    return worst < 1e-12, f"worst bilinearity residual {worst:.2e}"


def check_pure_rank_dichotomy(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for draw in (states.haar_random_pure, states.random_product_pure):
        for seeds in _blocks(seed, trials):
            psi, rho = _pure(draw, seeds)
            k = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])  # concurrence
            expected = np.stack([k, k, k**2], axis=-1)
            error = np.abs(correlation_matrix(rho).singular_values - expected)
            worst = _worst(worst, error)
    detail = f"{trials} random + {trials} product states, worst |sigma(c) - (k, k, k^2)|"
    return worst < 1e-12, f"{detail} {worst:.2e}"


def check_pure_determinant_identity(trials: int, seed: int) -> tuple[bool, str]:
    worst = 0.0
    for seeds in _blocks(seed, trials):
        rho = _pure(states.haar_random_pure, seeds)[1]
        nb = norms(bloch_decompose(rho).b)
        worst = _worst(worst, np.abs(det3(correlation_matrix(rho).c) + (nb**2 - 1) ** 2))
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


def _probe_sets(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random y, then n sets of three unit probes; a set is redrawn until well independent."""
    y, xs, redraw = _units(rng, n), np.empty((n, 3, 3)), np.ones(n, dtype=bool)
    while redraw.any():
        xs[redraw] = _units(rng, 3 * np.count_nonzero(redraw)).reshape(-1, 3, 3)
        redraw = det3(xs @ xs.swapaxes(-1, -2)) <= 1e-3
    return y, xs


def check_protocol_soundness(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    for seeds in _blocks(seed, trials):
        rho = _pure(states.haar_random_pure, seeds)[1]
        y, xs = _probe_sets(rng, len(seeds))
        disagree = exact_protocol(rho, y=y, xs=xs)[0] != _rank_labels(rho)
        if disagree.any():
            return False, f"seed {seeds[np.argmax(disagree)]}: protocol/classifier disagreement"
    return True, f"{trials} pure states, protocol matches the rank classifier"


def check_two_probe_insufficiency(trials: int, seed: int) -> tuple[bool, str]:
    n = min(trials, 1000)
    count, seeds = 0, range(seed, seed)
    while count < n:  # the first n entangled states from seed on
        seeds = range(seeds.stop, seeds.stop + n - count)
        rho = _pure(states.haar_random_pure, seeds)[1]
        cm = correlation_matrix(rho)
        full = np.flatnonzero(rank_says_entangled(cm))
        count, rho = count + len(full), rho[full]
        leak = np.any([
            ~(np.abs(covariance_direct(rho, ObservablePair(x=x, y=Z))) < 1e-10)
            for x in orthogonal_complement_basis(cm.c[full] @ Z)
        ], axis=0)
        if leak.any():
            return False, f"seed {seeds[full[np.argmax(leak)]]}: silent probe pair leaked signal"
    return True, f"{n} entangled states admit two independent all-zero probes"


def check_zero_pair_universality(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 404)  # criterion 5's directions at seed 0
    worst = 0.0
    for seeds in _blocks(seed, trials):
        offset = np.arange(seeds.start - seed, seeds.stop - seed)
        odd, stack = offset % 2 == 1, np.array(seeds, dtype=object)
        rho = np.empty((len(seeds), 4, 4), dtype=complex)
        rho[odd] = states.random_separable_mixed(stack[odd], 1 + offset[odd] % 4)
        rho[~odd] = states.random_mixed(stack[~odd], 2 + offset[~odd] % 4)
        rho = CheckedState(rho)
        pair = find_zero_correlation_pair(rho, _units(rng, len(seeds)))
        worst = _worst(worst, np.abs(covariance_direct(rho, pair)))
    rho = CheckedState(states.werner([0.0, 0.2, 1 / 3, 0.5, 1.0]))
    pair = find_zero_correlation_pair(rho, Z)
    worst = _worst(worst, np.abs(covariance_direct(rho, pair)))
    return worst < 1e-10, f"{trials} mixed states + Werner grid, worst |c| {worst:.2e}"


def check_werner_zero_set_identity(trials: int, seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    random_x, random_y = _units(rng, 100).reshape(50, 2, 3).swapaxes(0, 1)
    y = _units(rng, 50)  # 50 random pairs, then 50 orthogonal ones
    x = np.concatenate([random_x, orthogonal_complement_basis(y)[0]])
    pairs = ObservablePair(x=x, y=np.concatenate([random_y, y]))
    orthogonal = np.abs(np.einsum("...i,...i->...", pairs.x, pairs.y)) < 1e-9
    for xi in (0.1, 0.3, 0.4, 0.9):
        zero = np.abs(covariance_direct(states.werner(xi), pairs)) < 1e-12
        if not np.array_equal(zero, orthogonal):
            return False, f"xi={xi}: zero set differs from the x.y = 0 set"
    return True, "zero sets match x.y = 0 at xi = 0.1, 0.3, 0.4, 0.9 (100 pairs)"


def check_generator_validity(trials: int, seed: int) -> tuple[bool, str]:
    n = max(trials // 10, 10)
    for seeds in _blocks(seed, n):
        k = 1 + np.arange(seeds.start - seed, seeds.stop - seed) % 5
        as_density_matrix(density_from_pure(states.haar_random_pure(seeds)))
        as_density_matrix(density_from_pure(states.random_product_pure(seeds)))
        separable = ppt_is_separable(as_density_matrix(states.random_separable_mixed(seeds, k)))
        if not separable.all():
            return False, f"separable mixture {seeds[np.argmin(separable)]} failed its PPT check"
        as_density_matrix(states.random_mixed(seeds, k))
    return True, f"{n} draws per generator all pass state validation"


def check_werner_bloch_round_trip(trials: int, seed: int) -> tuple[bool, str]:
    xi = np.linspace(0.0, 1.0, 21)
    bf = bloch_decompose(states.werner(xi))
    f_dev = bf.f + xi[:, None, None] * np.eye(3)
    worst = _worst(np.abs(bf.a), np.abs(bf.b), np.abs(f_dev))
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
    pair = ObservablePair(x=np.broadcast_to(Z, (200, 3)), y=Z)
    record = sample_joint(rho, pair, ShotConfig(shots=10_000, seed=seed))
    mean = float(np.mean(record.covariance_estimate))
    combined = math.sqrt(sum(se**2 for se in record.standard_error.tolist())) / 200
    deviation = abs(mean + 0.25)
    detail = f"mean {mean:.9f}, |dev| {deviation:.2e} vs 3 SE {3 * combined:.2e}"
    return deviation < 3 * combined, f"200 seeds, {detail}"


def check_shot_se_scaling(trials: int, seed: int) -> tuple[bool, str]:
    pair = ObservablePair(x=Z, y=np.array([1.0, 0.0, 1.0]) / math.sqrt(2))
    rho = CheckedState(density_from_pure(states.bell_state("psi-")))
    ses = {
        n: sample_joint(rho, pair, ShotConfig(shots=n, seed=seed)).standard_error
        for n in (1_000, 10_000, 100_000)
    }
    r1, r2 = (ses[n] / ses[10 * n] / math.sqrt(10) for n in (1_000, 10_000))
    return abs(r1 - 1) < 0.2 and abs(r2 - 1) < 0.2, f"SE ratios vs sqrt(10): {r1:.3f}, {r2:.3f}"


def check_shot_determinism(trials: int, seed: int) -> tuple[bool, str]:
    cfg = ShotConfig(shots=5_000, seed=seed)
    pair = ObservablePair(x=Z, y=Z)
    rho = CheckedState(states.werner(0.6))
    first, second = (sample_joint(rho, pair, cfg) for _ in range(2))
    return first == second, "identical configs give bit-identical records"


def check_shot_false_positive_rate(trials: int, seed: int) -> tuple[bool, str]:
    pair = ObservablePair(x=np.broadcast_to(Z, (1000, 3)), y=Z)
    mixed = CheckedState(np.eye(4, dtype=complex) / 4)
    record = sample_joint(mixed, pair, ShotConfig(shots=10_000, seed=seed, z_threshold=3.0))
    hits = int(np.count_nonzero(record.decision == DECISION_NONZERO))
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
    token = _memo.set({} if trials <= BLOCK else None)  # past one block, no stack is kept
    all_ok = True
    try:
        for name, check in ALL_CHECKS:
            ok, detail = check(trials, seed)
            all_ok &= ok
            out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    finally:
        _memo.reset(token)
    return all_ok
