"""Unit and property tests for the small fixed-size linear-algebra kernels.

The eigen- and singular-value kernels are checked against spectra known in
closed form.  Their randomized properties (spectral invariants, transpose
invariance, |det| as the product of singular values, rank monotonicity) are
``bicorr.verify`` registry checks, run by tests/test_acceptance.py.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from bicorr import linalg, states
from bicorr.linalg import (
    det3,
    directions,
    hermitian_eigenvalues,
    norms,
    numeric_rank,
    orthogonal_complement_basis,
    symmetric3_singular_values,
)
from bicorr.qstate import partial_transpose_b

SINGLET_RHO = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)

# Partial transpose of the xi=1 Werner matrix (the singlet projector); its
# spectrum {-1/2, 1/2, 1/2, 1/2} follows from block-diagonalizing by hand.
SINGLET_PT = np.array(
    [[0, 0, 0, -0.5], [0, 0.5, 0, 0], [0, 0, 0.5, 0], [-0.5, 0, 0, 0]], dtype=complex
)

CHEN_C = (2.0 / 9.0) * np.array([[1, 0, -2], [0, -3, 0], [2, 0, 2]], dtype=float)


def random_hermitian(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (g + g.conj().T) / 2.0


class TestHermitianEigenvalues:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4), atol=1e-12)

    def test_singlet_projector_spectrum(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(SINGLET_RHO), [0, 0, 0, 1], atol=1e-10
        )

    def test_singlet_partial_transpose_spectrum(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(SINGLET_PT), [-0.5, 0.5, 0.5, 0.5], atol=1e-10
        )

    def test_werner_partial_transpose_spectrum(self):
        # PT of (1-xi)/4 I + xi |psi-><psi-| is (1-xi)/4 I + xi SINGLET_PT.
        for xi in np.linspace(0.0, 1.0, 31):
            np.testing.assert_allclose(
                hermitian_eigenvalues(partial_transpose_b(states.werner(xi))),
                [(1 - 3 * xi) / 4] + [(1 + xi) / 4] * 3,
                atol=1e-12,
            )

    @pytest.mark.parametrize("which", ["phi+", "phi-", "psi+", "psi-"])
    def test_bell_projector_spectrum(self, which):
        psi = states.bell_state(which)
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.outer(psi, psi.conj())), [0, 0, 0, 1], atol=1e-12
        )

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            m = random_hermitian(rng)
            assert abs(hermitian_eigenvalues(m).sum() - np.trace(m).real) < 1e-9


class TestSingularValues:
    def test_zero_matrix(self):
        np.testing.assert_allclose(symmetric3_singular_values(np.zeros((3, 3))), 0.0)

    def test_minus_identity(self):
        np.testing.assert_allclose(
            symmetric3_singular_values(-np.eye(3)), np.ones(3), atol=1e-12
        )

    def test_chen_correlation_matrix(self):
        # Exact values follow from the Gram matrix [[5,0,2],[0,9,0],[2,0,8]]
        # of the integer part: eigenvalues {9, 9, 4}, scaled by 2/9.
        sv = symmetric3_singular_values(CHEN_C)
        np.testing.assert_allclose(sv, [2 / 3, 2 / 3, 4 / 9], atol=1e-12)
        assert abs(np.prod(sv) - 16 / 81) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e-7, 1e-9])
    def test_exact_at_every_scale(self, scale):
        q, _ = np.linalg.qr(np.random.default_rng(16).standard_normal((3, 3)))
        m = scale * q @ np.diag([3.0, 2.0, 1.0]) @ q.T
        np.testing.assert_allclose(
            symmetric3_singular_values(m), scale * np.array([3.0, 2.0, 1.0]), rtol=1e-12
        )


class TestNumericRank:
    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((3, 3)), 1e-8) == 0

    def test_minus_identity(self):
        assert numeric_rank(-np.eye(3), 1e-8) == 3

    def test_outer_product_is_rank_one(self):
        m = np.outer([1.0, 2.0, -1.0], [0.5, 0.25, 1.0])
        assert numeric_rank(m, 1e-8) == 1

    def test_a_tolerance_array_broadcasts_over_one_decomposition(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((50, 3, 3)) * rng.choice([1e-10, 1e-2, 1.0], 50)[:, None, None]
        tols = np.array([1e-12, 1e-8, 1e-4, 1e-1, 10.0])
        each = np.array([numeric_rank(m, tol) for tol in tols])
        calls, solver = [], linalg.symmetric3_singular_values
        monkeypatch.setattr(
            linalg, "symmetric3_singular_values", lambda m: calls.append(m) or solver(m)
        )
        ranks = numeric_rank(m, tols[:, None, None])
        assert len(calls) == 1 and ranks.shape == (5, 50)
        np.testing.assert_array_equal(ranks, each)


class TestDet3:
    def test_identity(self):
        assert det3(np.eye(3)) == 1.0

    def test_minus_identity(self):
        assert det3(-np.eye(3)) == -1.0

    def test_chen_correlation_matrix(self):
        assert abs(det3(CHEN_C) + 16 / 81) < 1e-12

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            m = rng.standard_normal((3, 3))
            assert abs(det3(m) - np.linalg.det(m)) < 1e-10

    def test_one_matrix_gets_the_bits_of_its_row_in_a_stack(self):
        rng = np.random.default_rng(15)
        m = rng.standard_normal((20_000, 3, 3)) * 2.0 ** rng.integers(-600, 600, (20_000, 3, 3))
        m[:500].flat[rng.integers(0, 4500, 200)] = rng.choice([np.nan, np.inf, -np.inf, 0.0], 200)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            stack = det3(m)
            each = np.array([det3(one) for one in m])
        assert all(type(det3(one)) is float for one in m[:10])
        assert stack.tobytes() == each.tobytes()


class TestOrthogonalComplement:
    @pytest.mark.parametrize(
        "v", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (-0.3, 0.7, 0.2)]
    )
    def test_returns_orthonormal_pair(self, v):
        u1, u2 = orthogonal_complement_basis(np.array(v))
        assert abs(np.linalg.norm(u1) - 1) < 1e-12
        assert abs(np.linalg.norm(u2) - 1) < 1e-12
        assert abs(u1 @ u2) < 1e-12
        assert abs(u1 @ v) / np.linalg.norm(v) < 1e-12
        assert abs(u2 @ v) / np.linalg.norm(v) < 1e-12

    def test_random_directions(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            v = rng.standard_normal(3)
            u1, u2 = orthogonal_complement_basis(v)
            vhat = v / np.linalg.norm(v)
            assert max(abs(u1 @ vhat), abs(u2 @ vhat), abs(u1 @ u2)) < 1e-12


class TestNorms:
    def test_equal_numpy_bit_for_bit_where_no_square_underflows(self):
        rng = np.random.default_rng(29)
        v = rng.uniform(0.01, 1.0, (2000, 3)) * 10.0 ** rng.uniform(-140, 0, (2000, 1))
        v *= rng.choice([-1.0, 1.0], v.shape)
        assert norms(v).tolist() == [np.linalg.norm(row) for row in v]
        assert type(norms(v[0])) is np.float64

    def test_zero_vector_has_length_zero(self):
        assert norms(np.zeros((2, 3))).tolist() == [0.0, 0.0]


class TestDirections:
    def test_equal_numpy_bit_for_bit_where_no_square_underflows(self):
        rng = np.random.default_rng(31)
        v = rng.uniform(0.01, 1.0, (2000, 3)) * 10.0 ** rng.uniform(-140, 0, (2000, 1))
        v *= rng.choice([-1.0, 1.0], v.shape)
        assert directions(v).tolist() == [(row / np.linalg.norm(row)).tolist() for row in v]

    @pytest.mark.parametrize(
        "v, length",
        [
            ((1e-165, 0.0, 0.0), 1e-165),
            ((3e-160, -4e-160, 0.0), 5e-160),
            ((0.0, 5e-324, 0.0), 5e-324),
        ],
    )
    def test_tiny_vectors_get_a_unit_direction(self, v, length):
        u = directions(np.array(v))
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert u == pytest.approx(np.array(v) / length, rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_vector_has_direction_zero(self):
        assert directions(np.zeros((2, 3))).tolist() == [[0.0] * 3] * 2

    def test_direct_division_has_the_bits_of_the_rescale(self, monkeypatch):
        v = _straddling_rows(100_000, 37)
        inside = (np.abs(np.frexp(v)[1]) <= 254).all(axis=-1)
        exponents = set(np.frexp(v[inside])[1].ravel().tolist())
        assert {-254, 254} <= exponents and not {-255, 255} & exponents
        assert 30_000 < inside.sum() < 90_000
        with np.errstate(invalid="ignore"):  # inf / inf, in both routes
            expected = _rescaled_directions(v)
            calls = []
            monkeypatch.setattr(linalg, "norms", lambda u: calls.append(u) or norms(u))
            assert directions(v[inside]).tobytes() == expected[inside].tobytes()
            assert len(calls) == 1  # the lengths of v, and no rescaled ones
            assert directions(v).tobytes() == expected.tobytes()  # some vectors rescale
            for row in v[:: len(v) // 3000]:
                assert directions(row).tobytes() == _rescaled_directions(row).tobytes()
            for row in _SPECIAL_ROWS:
                assert directions(row).tobytes() == _rescaled_directions(row).tobytes()


def _rescaled_directions(v: np.ndarray) -> np.ndarray:
    """Directions by the power-of-two rescale alone: linalg's route for every vector before it
    divided the vectors of in-range components by their lengths directly."""
    _, e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))
    u = np.ldexp(v, -e)
    return u / np.maximum(norms(u), 0.5)[..., None]


def _straddling_rows(n: int, seed: int) -> np.ndarray:
    """n vectors whose components straddle the direct route's cutoffs, |frexp exponent| <= 254,
    and the edges where squares turn subnormal or overflow; then zero, 1.0 and special rows."""
    rng = np.random.default_rng(seed)
    edges = np.r_[-257:-251, 251:257, -515:-505, -1075:-1015:6, -60:61:12, 1000:1025:6]
    unit_scale = rng.integers(-3, 2, (n, 3))  # so that many vectors lie wholly inside
    exponents = np.where(rng.random((n, 3)) < 0.75, unit_scale, rng.choice(edges, (n, 3)))
    v = np.ldexp(rng.uniform(0.5, 1.0, (n, 3)), exponents) * rng.choice([-1.0, 1.0], (n, 3))
    v[rng.random((n, 3)) < 0.15] = 0.0
    ones = rng.random(n) < 0.1  # a component exactly 1.0, the largest beside unit-scale ones
    v[ones, rng.integers(0, 3, ones.sum())] = rng.choice([-1.0, 1.0], ones.sum())
    return np.concatenate([v, _SPECIAL_ROWS])


_SPECIAL_ROWS = np.array([
    [0.0, 0.0, 0.0],
    [-0.0, 0.0, -0.0],
    [5e-324, 0.0, 0.0],
    [5e-324, -5e-324, 5e-324],
    [1.0, 0.0, 0.0],
    [1.0, 5e-324, 0.0],
    [1.0, 1.5e-323, 0.0],  # a normal square, yet the rescale rounds 1.5e-323 to 2e-323
    [1.0, -0.5, 2.0**-300],
    [-4.0509656814160974e-157, 1.1604365916621817e-156, 9.789000232298691e-154],
    [2.0**-255, 0.0, 0.0],
    [2.0**-256, 0.75, 0.0],
    [2.0**254, -1.0, 0.0],
    [2.0**253 * 1.5, 2.0**253, 2.0**-250],
    [1e308, 1e308, 1e308],
    [np.inf, 0.5, 0.0],
    [-np.inf, 1e-300, 0.0],
    [np.inf, np.inf, 1.0],
    [np.nan, 0.5, 0.0],
    [np.nan, np.inf, 0.0],
])


def test_tolerances_are_assigned_only_in_linalg():
    # linalg holds the tolerance table; every other module imports from it.
    offenders = [
        f"{path.name}:{node.lineno} {node.id}"
        for path in sorted(Path(linalg.__file__).parent.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id.endswith("_TOL")
    ]
    assert offenders == []


def test_readme_tolerance_table_lists_exactly_the_linalg_tolerances():
    # A tolerance added to or deleted from the table in linalg takes its README row with it.
    readme = Path(linalg.__file__).parents[2] / "README.md"
    rows = re.findall(r"^\| `(\w+_TOL)` \|", readme.read_text(encoding="utf-8"), re.MULTILINE)
    assigned = [
        node.id
        for node in ast.walk(ast.parse(Path(linalg.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        and node.id.endswith("_TOL")
    ]
    assert sorted(rows) == sorted(assigned)


def test_linalg_checks_nothing():
    # Input is checked where it enters (qstate, correlation, detect); the
    # kernels trust their callers, so linalg raises nothing and defines no error.
    tree = ast.parse(Path(linalg.__file__).read_text(encoding="utf-8"))
    offenders = [
        f"linalg.py:{node.lineno} {type(node).__name__}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Raise, ast.ClassDef))
    ]
    assert offenders == []


def test_core_modules_do_not_import_the_front_ends():
    # The library core sits below the fixtures, the property registry and the
    # command line: none of those may be imported from inside it.
    core = ("linalg", "qstate", "correlation", "detect", "shotsim", "streams")
    front_ends = {"bicorr.states", "bicorr.verify", "bicorr.cli"}
    offenders = []
    for name in core:
        path = Path(linalg.__file__).with_name(f"{name}.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
            else:
                continue
            offenders += [f"{name}.py:{node.lineno} {m}" for m in sorted(modules & front_ends)]
    assert offenders == []
