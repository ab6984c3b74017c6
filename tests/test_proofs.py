"""Exact proofs, in sympy, of identities the deciders rest on.

Random float checks cannot tell an identity from a near-identity; these expand both sides
symbolically and require their difference to vanish.  The state is qstate's Bloch expansion,

    rho = 1/4 (I (x) I + a.sigma (x) I + I (x) b.sigma + sum_ij F_ij sigma_i (x) sigma_j),

with real symbols, and C = F - a b^T is the correlation matrix.  The pure-state identities are
proved on the Schmidt form cos t|00> + sin t|11>.  sympy is a test dependency only; no module of
the package imports it.
"""

import itertools
from functools import cache

import numpy as np
import sympy as sp
from sympy import kronecker_product as kron

from bicorr import states
from bicorr.correlation import correlation_matrix, covariance_via_c
from bicorr.qstate import CheckedState, bloch_decompose, density_from_pure, partial_transpose_b
from bicorr.shotsim import joint_outcome_probabilities
from test_shotsim import _covariance, _pairs, _read_out, _shrink

SIGMA = (
    sp.eye(2),
    sp.Matrix([[0, 1], [1, 0]]),
    sp.Matrix([[0, -sp.I], [sp.I, 0]]),
    sp.Matrix([[1, 0], [0, -1]]),
)


def real_symbols(name, n):
    return sp.Matrix(sp.symbols(f"{name}1:{n + 1}", real=True))


def bloch_state():
    """(rho, a, b, F) for the general Bloch form: 15 real symbols."""
    a, b = real_symbols("a", 3), real_symbols("b", 3)
    f = real_symbols("f", 9).reshape(3, 3)
    rho = kron(SIGMA[0], SIGMA[0])
    for i in range(3):
        rho += a[i] * kron(SIGMA[i + 1], SIGMA[0]) + b[i] * kron(SIGMA[0], SIGMA[i + 1])
        for j in range(3):
            rho += f[i, j] * kron(SIGMA[i + 1], SIGMA[j + 1])
    return rho / 4, a, b, f


def local(v):
    """1/2 (I + v.sigma), the observable of Bloch vector v (qstate.observable_from_bloch)."""
    return (SIGMA[0] + sum((v[i] * SIGMA[i + 1] for i in range(3)), sp.zeros(2))) / 2


def vanishes(expr) -> bool:
    return sp.expand(expr) == 0


def test_purity_is_a_quarter_of_one_plus_the_squared_bloch_norms():
    rho, a, b, f = bloch_state()
    norms = (a.T * a)[0] + (b.T * b)[0] + sum(x**2 for x in f)
    assert vanishes(4 * (rho * rho).trace() - (1 + norms))


def bloch_of(rho):
    """(a, b, F) of rho from its Pauli traces, as qstate.bloch_decompose reads them."""

    def pauli_trace(i, j):
        return (rho * kron(SIGMA[i], SIGMA[j])).trace()

    a = sp.Matrix([pauli_trace(i, 0) for i in (1, 2, 3)])
    b = sp.Matrix([pauli_trace(0, j) for j in (1, 2, 3)])
    f = sp.Matrix(3, 3, lambda i, j: pauli_trace(i + 1, j + 1))
    return a, b, f


def outcome_table(rho, x, y):
    """T[s][t] = Tr(rho (Q_s (x) R_t)) with Q_1 = Q and Q_0 = I - Q, likewise R (qstate's)."""
    q, r = local(x), local(y)
    q_pair, r_pair = (sp.eye(2) - q, q), (sp.eye(2) - r, r)
    return [[(rho * kron(q_pair[s], r_pair[t])).trace() for t in (0, 1)] for s in (0, 1)]


def direct(table):
    """covariance_direct's formula: <XY> - <X><Y> = T11 - (T10 + T11)(T01 + T11)."""
    joint = table[1][1]
    return joint - (table[1][0] + joint) * (table[0][1] + joint)


def test_the_trace_formula_covariance_is_a_quarter_of_x_c_y():
    # covariance_direct's formula on the table; covariance_via_c reads 1/4 x^T C y.
    rho, a, b, f = bloch_state()
    x, y = real_symbols("x", 3), real_symbols("y", 3)
    assert vanishes(direct(outcome_table(rho, x, y)) - (x.T * (f - a * b.T) * y)[0] / 4)


def test_werner_correlation_matrix_is_minus_xi_times_the_identity():
    xi = sp.Symbol("xi", real=True)
    singlet = sp.Matrix([0, 1, -1, 0]) / sp.sqrt(2)
    rho = (1 - xi) / 4 * sp.eye(4) + xi * singlet * singlet.T
    # The symbolic matrix is states.werner's, at a few mixing parameters.
    for value in (0, sp.Rational(1, 3), sp.Rational(7, 10), 1):
        exact = np.array(rho.subs(xi, value).evalf(), dtype=complex)
        assert np.max(np.abs(exact - states.werner(float(value)))) < 1e-15

    a, b, f = bloch_of(rho)
    c = f - a * b.T
    assert all(vanishes(entry) for entry in c + xi * sp.eye(3))


@cache  # sympy expressions are immutable; the three proofs below share one build
def scaled_state():
    """(tau, table, c, x, y, sigma, F) for rho = tau sigma with sigma the general Bloch form: a
    matrix whose trace tau is off 1, as a state within NORM_TOL of it is.  table is rho's outcome
    table and c = 1/4 x^T C y sigma's covariance."""
    sigma, a, b, f = bloch_state()
    tau = sp.Symbol("tau", real=True)
    x, y = real_symbols("x", 3), real_symbols("y", 3)
    c = (x.T * (f - a * b.T) * y)[0] / 4
    return tau, outcome_table(tau * sigma, x, y), c, x, y, sigma, f


def test_off_trace_one_the_trace_formula_adds_tau_1_minus_tau_t11():
    tau, table, c, x, y, sigma, _ = scaled_state()
    t11 = outcome_table(sigma, x, y)[1][1]
    assert vanishes(direct(table) - tau**2 * c - tau * (1 - tau) * t11)


def test_off_trace_one_the_tables_determinant_is_tau_squared_c():
    tau, table, c, *_ = scaled_state()
    assert vanishes(table[1][1] * table[0][0] - table[1][0] * table[0][1] - tau**2 * c)


def test_off_trace_one_the_route_through_c_adds_a_quarter_tau_1_minus_tau_x_f_y():
    # With the determinant in place of today's formula the routes would still part by
    # 1/4 tau (1 - tau) |x^T F y|: up to 2.5e-10 at |1 - tau| = NORM_TOL for unit x and y.
    tau, _, c, x, y, sigma, f = scaled_state()
    a_rho, b_rho, f_rho = bloch_of(tau * sigma)
    via_c = (x.T * (f_rho - a_rho * b_rho.T) * y)[0] / 4
    assert vanishes(via_c - tau**2 * c - tau * (1 - tau) * (x.T * f * y)[0] / 4)


THETA = sp.Symbol("theta", real=True)
# The Schmidt form's angles tied to the package, theta = 0 (product) to pi/4 (Bell).
ANGLES = (0, sp.pi / 12, sp.pi / 8, sp.pi / 4)


def at_angles(matrix):
    """matrix, a function of THETA, as a complex array at each angle of ANGLES."""
    return [np.array(matrix.subs(THETA, value).evalf(), dtype=complex) for value in ANGLES]


def schmidt_state():
    """(psi, rho, k) for cos t|00> + sin t|11>, every pure state's form up to local unitaries,
    with k = sin 2t its concurrence.  rho is density_from_pure's matrix at four angles."""
    psi = sp.Matrix([sp.cos(THETA), 0, 0, sp.sin(THETA)])
    rho = psi * psi.T
    for amplitudes, exact in zip(at_angles(psi), at_angles(rho)):
        assert np.max(np.abs(exact - density_from_pure(amplitudes[:, 0]).matrix)) < 1e-15
    return psi, rho, sp.sin(2 * THETA)


def trig_vanishes(expr) -> bool:
    """expr = 0 as a polynomial in cos t and sin t, reduced by cos^2 t + sin^2 t = 1."""
    c, s = sp.symbols("c s", real=True)
    poly = sp.expand_trig(expr).subs({sp.cos(THETA): c, sp.sin(THETA): s})
    return sp.expand(sp.rem(sp.expand(poly), s**2 + c**2 - 1, s)) == 0


def test_the_schmidt_form_has_c_diag_k_minus_k_k_squared():
    # With C -> O_A C O_B^T under local unitaries (tests/test_detect.py), every pure state's
    # singular values are (k, k, k^2): the rank dichotomy's spectrum.
    _, rho, k = schmidt_state()
    a, b, f = bloch_of(rho)
    c = f - a * b.T
    assert all(trig_vanishes(entry) for entry in c - sp.diag(k, -k, k**2))


def partial_transpose(rho):
    """rho^T_B: <a b|rho^T_B|a' b'> = <a b'|rho|a' b>, at index 2a + b."""
    return sp.Matrix(4, 4, lambda i, j: rho[2 * (i // 2) + j % 2, 2 * (j // 2) + i % 2])


def test_the_schmidt_forms_partial_transpose_has_least_eigenvalue_minus_k_over_2():
    # The identity behind PURE_ENTANGLED_SV_TOL = 2 PSD_TOL: on a pure state the PPT verdict's
    # cut lambda_min >= -PSD_TOL is the rank verdict's cut k <= 2 PSD_TOL.
    psi, rho, k = schmidt_state()
    pt = partial_transpose(rho)
    for amplitudes, exact in zip(at_angles(psi), at_angles(pt)):
        moved = partial_transpose_b(density_from_pure(amplitudes[:, 0]))
        assert np.max(np.abs(exact - moved)) < 1e-15
    # Its characteristic polynomial has the roots cos^2 t, sin^2 t and +-k/2; on 0 <= t <= pi/2
    # the first three are at least 0, so -k/2 is the least.
    lam = sp.Symbol("lambda")
    roots = (sp.cos(THETA) ** 2, sp.sin(THETA) ** 2, k / 2, -k / 2)
    charpoly = (pt - lam * sp.eye(4)).det(method="berkowitz")  # 4x4: det(lam I - pt)
    assert trig_vanishes(charpoly - sp.Mul(*(lam - root for root in roots)))


BELL = {
    "phi+": sp.Matrix([1, 0, 0, 1]) / sp.sqrt(2),
    "phi-": sp.Matrix([1, 0, 0, -1]) / sp.sqrt(2),
    "psi+": sp.Matrix([0, 1, 1, 0]) / sp.sqrt(2),
    "psi-": sp.Matrix([0, 1, -1, 0]) / sp.sqrt(2),
}


@cache
def bell_diagonal():
    """(rho, p) for rho = sum_i p_i |B_i><B_i| over BELL's states, with p = (p1, p2, p3, 1 - p1 -
    p2 - p3).  The Bell vectors are states.bell_state's, and with p_i = (1 - xi)/4 on the first
    three, so (1 + 3 xi)/4 on psi-, rho is states.werner(xi) at four mixing parameters."""
    for which, vector in BELL.items():
        exact = np.array(vector.evalf(), dtype=complex)[:, 0]
        assert np.max(np.abs(exact - states.bell_state(which))) < 1e-15
    p1, p2, p3 = sp.symbols("p1:4", real=True)
    p = (p1, p2, p3, 1 - p1 - p2 - p3)
    rho = sum((w * v * v.T for w, v in zip(p, BELL.values())), sp.zeros(4))
    xi = sp.Symbol("xi", real=True)
    werner = rho.subs({p1: (1 - xi) / 4, p2: (1 - xi) / 4, p3: (1 - xi) / 4})
    for value in (0, sp.Rational(1, 3), sp.Rational(7, 10), 1):
        exact = np.array(werner.subs(xi, value).evalf(), dtype=complex)
        assert np.max(np.abs(exact - states.werner(float(value)))) < 1e-15
    return rho, p


def test_a_bell_diagonal_state_has_no_local_vectors_and_a_diagonal_c():
    # C = diag(t), t the weights' sum of the Bell states' sign vectors: item 21's tetrahedron.
    rho, p = bell_diagonal()
    a, b, f = bloch_of(rho)
    signs = ((1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1))  # phi+, phi-, psi+, psi-
    t = sum((w * sp.Matrix(sign) for w, sign in zip(p, signs)), sp.zeros(3, 1))
    assert all(vanishes(entry) for entry in (*a, *b))
    assert all(vanishes(entry) for entry in f - a * b.T - sp.diag(*t))


def test_a_bell_diagonal_states_partial_transpose_has_eigenvalues_half_minus_each_weight():
    # So lambda_min(rho^T_B) = 1/2 - p_max: the state is entangled exactly when one weight
    # exceeds 1/2, Werner's xi > 1/3.
    rho, p = bell_diagonal()
    lam = sp.Symbol("lambda")
    charpoly = (partial_transpose(rho) - lam * sp.eye(4)).det(method="berkowitz")
    assert vanishes(charpoly - sp.Mul(*(lam - (sp.Rational(1, 2) - w) for w in p)))


def test_local_readout_flips_scale_the_covariance_by_one_factor_per_side():
    # Item 22's flip model, the very helpers that TestReadoutFlips in test_shotsim.py runs on
    # rational tables and rates: side A reads a true 0 as 1 with probability p_A and a true 1
    # as 0 with q_A, side B likewise.  On a symbolic table that sums to 1, at symbolic rates,
    # the observed table sums to 1 and its covariance is (1 - p_A - q_A)(1 - p_B - q_B) times
    # the ideal one.
    t11, t10, t01 = sp.symbols("t11 t10 t01", real=True)
    table = [[t11, t10], [t01, 1 - t11 - t10 - t01]]
    side_a, side_b = sp.symbols("p_A q_A", real=True), sp.symbols("p_B q_B", real=True)
    observed = _read_out(table, side_a, side_b)
    assert vanishes(sum(map(sum, observed)) - 1)
    factor = _shrink(side_a) * _shrink(side_b)
    assert vanishes(_covariance(observed) - factor * _covariance(table))


def test_the_partial_transpose_moves_across_a_trace():
    # Tr(X^T_B Y) = Tr(X Y^T_B) for any 4x4 X and Y.  At X = |v><v| and Y = rho it reads
    # Tr(W rho) = <v|rho^T_B|v> for W = (|v><v|)^T_B, so at the eigenvector v of
    # lambda_min(rho^T_B) the witness W reads lambda_min: below 0 exactly where PPT fails.
    x = sp.Matrix(4, 4, sp.symbols("x1:17"))
    y = sp.Matrix(4, 4, sp.symbols("y1:17"))
    assert vanishes((partial_transpose(x) * y).trace() - (x * partial_transpose(y)).trace())
    # partial_transpose is qstate.partial_transpose_b, and W reads lambda_min, at numbers.
    entangled = 0
    for rho in map(CheckedState, states.random_density(range(12))):
        moved = partial_transpose_b(rho)
        assert np.array_equal(np.array(partial_transpose(rho.matrix), dtype=complex), moved)
        lam, vectors = np.linalg.eigh(moved)
        w = partial_transpose_b(density_from_pure(vectors[:, 0]))
        assert abs(np.trace(w @ rho.matrix) - lam[0]) < 1e-15
        entangled += lam[0] < 0
    assert entangled > 0


def test_a_product_states_f_is_a_b_transposed_and_its_diagonal_sums_to_at_most_one():
    # rho_A (x) rho_B, with rho_A = 1/2 (I + a.sigma) and rho_B likewise, has F = a b^T, so
    # f_ii = a_i b_i.  Lagrange's identity on (|a_i|) and (|b_i|) then gives
    # sum |f_ii| = sum |a_i||b_i| <= |a||b| <= 1 in the Bloch ball, and convexity carries the
    # bound to every separable mixture: the XX, YY, ZZ rung read as values.
    a, b = real_symbols("a", 3), real_symbols("b", 3)
    a_rho, b_rho, f = bloch_of(kron(local(a), local(b)))
    assert all(vanishes(entry) for entry in (*(a_rho - a), *(b_rho - b), *(f - a * b.T)))
    s, t = sp.symbols("s1:4", nonnegative=True), sp.symbols("t1:4", nonnegative=True)
    gap = sum(u**2 for u in s) * sum(v**2 for v in t) - sum(u * v for u, v in zip(s, t)) ** 2
    squares = sum((s[i] * t[j] - s[j] * t[i]) ** 2 for i in range(3) for j in range(i + 1, 3))
    assert vanishes(gap - squares)
    # At numbers: F = a b^T on random product states, and the bound on separable mixtures.
    product = bloch_decompose(density_from_pure(states.random_product_pure(range(50))))
    assert np.max(np.abs(product.f - product.a[:, :, None] * product.b[:, None, :])) < 1e-15
    mixtures = bloch_decompose(states.random_separable_mixed(range(200), 4))
    assert np.abs(np.diagonal(mixtures.f, axis1=-2, axis2=-1)).sum(axis=-1).max() <= 1


def test_a_pair_of_shots_reads_the_covariance_as_a_mean_of_plus_or_minus_one_half():
    # ROADMAP item 28's e-test rests on this: two independent shots (X1, Y1), (X2, Y2) of binary
    # X, Y with cells p11, p10, p01, p00 give h = (X1 - X2)(Y1 - Y2)/2, which is +-1/2 with
    # probabilities 2 p11 p00 and 2 p10 p01, and 0 otherwise.  So E h = p11 p00 - p10 p01, the
    # covariance, and E[1 + lambda h] = 1 wherever the covariance is 0.
    p11, p10, p01 = sp.symbols("p11 p10 p01", real=True)
    p00 = 1 - p11 - p10 - p01
    cells = {(1, 1): p11, (1, 0): p10, (0, 1): p01, (0, 0): p00}
    law = {}
    for (x1, y1), (x2, y2) in itertools.product(cells, repeat=2):
        h = sp.Rational((x1 - x2) * (y1 - y2), 2)
        law[h] = law.get(h, 0) + cells[x1, y1] * cells[x2, y2]
    half = sp.Rational(1, 2)
    assert set(law) == {-half, 0, half} and vanishes(sum(law.values()) - 1)
    assert vanishes(law[half] - 2 * p11 * p00) and vanishes(law[-half] - 2 * p10 * p01)
    covariance = _covariance([[p11, p10], [p01, p00]])
    assert vanishes(p11 * p00 - p10 * p01 - covariance)
    lam = sp.Symbol("lambda", real=True)
    assert vanishes(sum((1 + lam * h) * p for h, p in law.items()) - 1 - lam * covariance)
    # At numbers: the cells' determinant is covariance_via_c, on mixed and pure random states.
    n = 200
    pure = density_from_pure(states.haar_random_pure(range(n))).matrix
    rho = np.concatenate([states.random_density(range(n)), pure])
    pair = _pairs(2 * n, 28)
    p = joint_outcome_probabilities(rho, pair)
    via_c = covariance_via_c(correlation_matrix(rho), pair)
    assert np.max(np.abs(p[:, 0] * p[:, 3] - p[:, 1] * p[:, 2] - via_c)) <= 1e-15
