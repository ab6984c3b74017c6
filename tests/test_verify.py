"""The draws of the verify registry: block probe sets, the stacks one run_all shares, and
the checks' verdicts on a nan residual."""

import dataclasses

import numpy as np
import pytest

from bicorr import correlation, linalg, qstate, states, verify
from bicorr.linalg import det3, norms
from bicorr.qstate import BlochForm
from bicorr.verify import ALL_CHECKS, BLOCK, run_all


def _lines(trials: int, seed: int) -> list[str]:
    lines = []
    run_all(trials, seed, lines.append)
    return lines


@pytest.mark.parametrize("seed", [0, 5])
def test_each_check_alone_prints_its_run_all_line(seed):
    lines = _lines(200, seed)
    for line, (name, check) in zip(lines, ALL_CHECKS, strict=True):
        ok, detail = check(200, seed)
        assert line == f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"


def test_successive_runs_agree_and_each_draws_its_own_stacks(monkeypatch):
    calls = []
    for name in ("haar_random_pure", "random_product_pure", "random_density"):

        def counted(seed, draw=getattr(states, name), name=name):
            if isinstance(seed, range):
                calls.append((name, seed))
            return draw(seed)

        monkeypatch.setattr(states, name, counted)
    first = _lines(200, 3)
    first_calls, calls[:] = calls[:], []
    assert _lines(200, 3) == first
    assert calls == first_calls
    # Several checks read each of these stacks, and each run draws each once.
    assert calls.count(("haar_random_pure", range(3, 203))) == 1
    assert calls.count(("random_product_pure", range(3, 203))) == 1
    assert calls.count(("random_density", range(3, 203))) == 1


def test_shared_stacks_are_read_only_and_equal_a_fresh_draw(monkeypatch):
    seen = []

    def spy(trials, seed):
        seen.append(verify._pure(states.haar_random_pure, range(seed, seed + trials)))
        seen.append(verify._density(range(seed, seed + trials)))
        return True, "spy"

    monkeypatch.setattr(verify, "ALL_CHECKS", [("spy", spy), ("spy", spy)])
    run_all(200, 4, lambda line: None)
    rho, density, again, density_again = seen
    psi = rho.amplitudes
    assert again is rho and density_again is density
    assert psi.tobytes() == states.haar_random_pure(range(4, 204)).tobytes()
    assert density.matrix.tobytes() == states.random_density(range(4, 204)).tobytes()
    for array in (psi, rho.matrix, density.matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.matrix = np.eye(4) / 4


def test_only_a_one_block_run_shares_its_stacks(monkeypatch):
    shared = []

    def spy(trials, seed):
        seeds = range(seed, seed + 3)
        shared.append(verify._density(seeds) is verify._density(seeds))
        return True, "spy"

    monkeypatch.setattr(verify, "ALL_CHECKS", [("spy", spy)])
    run_all(BLOCK + 1, 0, lambda line: None)
    run_all(BLOCK, 0, lambda line: None)
    assert shared == [False, True]
    assert spy(BLOCK, 0) == (True, "spy") and shared[-1] is False  # outside run_all


def _counted_svds(monkeypatch) -> list:
    """The stack shapes of every symmetric3_singular_values call, wherever it is imported."""
    calls, solver = [], linalg.symmetric3_singular_values

    def counted(m):
        calls.append(np.shape(m))
        return solver(m)

    for module in (linalg, correlation, verify):
        monkeypatch.setattr(module, "symmetric3_singular_values", counted)
    return calls


def _counted_decompositions(monkeypatch) -> list:
    """The stack shapes of every bloch_decompose call: CheckedState.bloch's and verify's own."""
    calls, decompose = [], qstate.bloch_decompose

    def counted(rho):
        calls.append(np.shape(rho.matrix if isinstance(rho, qstate.CheckedState) else rho))
        return decompose(rho)

    for module in (qstate, verify):
        monkeypatch.setattr(module, "bloch_decompose", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 5])
def test_a_pass_decomposes_each_stack_once_and_successive_runs_the_same(seed, monkeypatch):
    # Transpose check 2, determinant check 1, rank monotone 1 (five tolerances), and one each for
    # the Haar and product stacks that five checks read.  A run keeps nothing for the next.
    calls = _counted_svds(monkeypatch)
    # One Bloch form each for the Haar, product and density stacks, whatever reads them (protocol
    # soundness's exact_protocol included), two for zero-pair universality's block and Werner
    # grid, and one for the Werner round trip's grid.
    forms = _counted_decompositions(monkeypatch)
    first = _lines(200, seed)
    first_calls, calls[:] = calls[:], []
    first_forms, forms[:] = forms[:], []
    assert _lines(200, seed) == first
    assert calls == first_calls and len(calls) == 6
    assert calls.count((200, 3, 3)) == 6
    assert forms == first_forms
    assert forms == [(200, 4, 4)] * 4 + [(5, 4, 4), (21, 4, 4)]


def test_only_a_one_block_run_shares_the_stacks_correlation_matrices(monkeypatch):
    shared = []

    def spy(trials, seed):
        seeds = range(seed, seed + 3)
        pure = [verify._pure(states.haar_random_pure, seeds) for _ in range(2)]
        shared.append(pure[0].cm is pure[1].cm)
        shared.append(verify._density(seeds).cm is verify._density(seeds).cm)
        return True, "spy"

    monkeypatch.setattr(verify, "ALL_CHECKS", [("spy", spy)])
    run_all(BLOCK + 1, 0, lambda line: None)
    run_all(BLOCK, 0, lambda line: None)
    assert shared == [False, False, True, True]


def test_the_shared_stacks_are_dropped_when_run_all_raises():
    def out(line):
        raise RuntimeError(line)

    with pytest.raises(RuntimeError):
        run_all(200, 0, out)
    assert verify._memo.get() is None


@pytest.mark.parametrize("seed", [0, 1])
def test_probe_sets_are_unit_independent_and_deterministic(seed):
    n = 200
    rng = np.random.default_rng(seed)
    verify._units(rng, n)  # the y directions come first
    first = verify._units(rng, 3 * n).reshape(n, 3, 3)
    redrawn = det3(first @ first.swapaxes(-1, -2)) <= 1e-3
    assert redrawn.any()  # this seed runs the redraw path

    y, xs = verify._probe_sets(np.random.default_rng(seed), n)
    assert np.abs(norms(y) - 1).max() < 1e-15 and np.abs(norms(xs) - 1).max() < 1e-15
    assert (det3(xs @ xs.swapaxes(-1, -2)) > 1e-3).all()
    np.testing.assert_array_equal(xs[~redrawn], first[~redrawn])
    assert not (xs[redrawn] == first[redrawn]).all(axis=(1, 2)).any()
    y_again, xs_again = verify._probe_sets(np.random.default_rng(seed), n)
    assert y_again.tobytes() == y.tobytes() and xs_again.tobytes() == xs.tobytes()


def _nan_result(kernel):
    """kernel, with every entry of its result replaced by nan."""
    def patched(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if isinstance(out, BlochForm):
            return BlochForm(*(np.full_like(v, np.nan) for v in (out.a, out.b, out.f)))
        return np.full_like(out, np.nan)
    return patched


@pytest.mark.parametrize(
    "check, module, kernel",
    [
        (verify.check_bloch_round_trip, verify, "bloch_assemble"),
        (verify.check_pure_state_properties, qstate, "bloch_decompose"),
        (verify.check_product_local_vectors, qstate, "bloch_decompose"),
        (verify.check_partial_trace_consistency, verify, "partial_trace_B"),
        (verify.check_covariance_path_equivalence, verify, "covariance_direct"),
        (verify.check_pure_rank_dichotomy, correlation, "symmetric3_singular_values"),
        (verify.check_pure_determinant_identity, qstate, "bloch_decompose"),
        (verify.check_zero_pair_universality, verify, "covariance_direct"),
        (verify.check_werner_bloch_round_trip, verify, "bloch_decompose"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in det")
def test_a_nan_residual_fails_its_check(check, module, kernel, monkeypatch):
    monkeypatch.setattr(module, kernel, _nan_result(getattr(module, kernel)))
    ok, detail = check(200, 0)
    assert ok is False and detail.endswith(" nan")


def test_a_nan_covariance_is_a_leak_of_the_silent_probes(monkeypatch):
    monkeypatch.setattr(verify, "covariance_direct", _nan_result(verify.covariance_direct))
    ok, detail = verify.check_two_probe_insufficiency(200, 0)
    assert ok is False and detail.endswith(": silent probe pair leaked signal")


@pytest.mark.parametrize("seed, row", [(0, 0), (5, 137)])
def test_a_leak_names_the_seed_of_its_row(seed, row, monkeypatch):
    covariance = verify.covariance_direct

    def nan_on_row(rho, pair):
        c = covariance(rho, pair)
        c[row] = np.nan
        return c

    monkeypatch.setattr(verify, "covariance_direct", nan_on_row)
    ok, detail = verify.check_two_probe_insufficiency(200, seed)
    assert (ok, detail) == (False, f"seed {seed + row}: silent probe pair leaked signal")


def test_a_nan_tr_m2_residual_fails_the_spectral_check(monkeypatch):
    # Tr m stays finite and Tr m^2 reads nan: the second of the two residuals is the nan one.
    traces = iter([np.trace, lambda *args, **kwargs: np.nan])
    monkeypatch.setattr(np, "trace", lambda *args, **kwargs: next(traces)(*args, **kwargs))
    ok, detail = verify.check_spectral_invariants(200, 0)
    assert (ok, detail) == (False, "200 matrices, worst Tr m / Tr m^2 residual nan")


def test_the_werner_zero_set_check_names_the_xi_that_differs(monkeypatch):
    # One covariance_direct call covers the four xi; a difference in row 2 is xi = 0.4's.
    original = verify.covariance_direct

    def shifted(rho, pair):
        c = original(rho, pair)
        c[2] += 1.0
        return c

    monkeypatch.setattr(verify, "covariance_direct", shifted)
    ok, detail = verify.check_werner_zero_set_identity(200, 0)
    assert (ok, detail) == (False, "xi=0.4: zero set differs from the x.y = 0 set")
