"""Dense linear-algebra kernels for the small fixed sizes used in this package.

Everything here operates on plain numpy arrays, one or a stack on leading axes:
real 3-vectors, real 3x3 matrices, and complex 4x4 Hermitian matrices.
Eigenvalues and singular values come from LAPACK through the gufuncs of
``numpy.linalg._umath_linalg`` that numpy.linalg calls for these dtypes, with
the same signatures, so the bits are numpy.linalg's (tests/test_linalg.py pins
them).  numpy.linalg's Python wrapper, which at one matrix costs about as much
as LAPACK, is skipped: its input conversion, shape check and type promotion,
moot for the callers' complex (..., 4, 4) and real (..., 3, 3) arrays, and its
``errstate`` that turns LAPACK non-convergence into ``LinAlgError``.  The
kernels check nothing: their callers pass matrices built from input that
``qstate``, ``correlation`` or ``detect`` has already checked: finite, with
entries of order 1 or below, on which LAPACK converges.

The table below holds every tolerance of the package.  Each bounds a quantity
of order 1 (unit trace, unit ball, |c_ij| <= 1), so the values are absolute.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

HERMITIAN_TOL = 1e-9  # largest |rho - rho^dagger| entry of a state taken as Hermitian
NORM_TOL = 1e-9  # input slack only: |q - 1| for q = norm^2, trace, probe length; Bloch bounds
PSD_TOL = 1e-9  # most negative eigenvalue counted as >= 0: state positivity, PPT verdict
BALL_TOL = 1e-12  # largest excess over 1 of an observable's Bloch-vector norm
ZERO_CORRELATION_TOL = 1e-10  # largest |c(x^, y^)| the exact oracle calls zero, and |c y^| alike
GRAM_TOL = 1e-9  # smallest accepted Gram determinant of the three probe directions
PURITY_TOL = 1e-9  # largest 1 - Tr(rho^2) at which the protocol treats a state as pure
# Concurrence above which a pure state is entangled (rank verdict, Schmidt oracle); its partial
# transpose has smallest eigenvalue -concurrence/2, so this is also the PPT verdict's cut.
PURE_ENTANGLED_SV_TOL = 2.0 * PSD_TOL


def item_or_array(a: np.ndarray):
    """A result of one input as its Python float, bool or int; a stack's results as an array."""
    return a.item() if a.ndim == 0 else a


def norms(v: np.ndarray) -> np.ndarray:
    """Norms over the last axis, np.linalg.norm's bits wherever v.v is a normal float."""
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def directions(v: np.ndarray) -> np.ndarray:
    """Unit vectors along v over the last axis, 0 for a zero vector, at any length."""
    return _directions(v)


def _directions(v: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """``directions(v)``, given its lengths norms(v) if the caller has taken them.

    Where every component of v is 0, non-finite or of magnitude in [2**-255, 2**254), v is divided
    by its lengths, with the bits of the exact power-of-two rescale that other input takes: no
    square, sum or root of finite v is then subnormal or infinite in either route, and a power of
    two passes exactly through all other rounding; frexp gives inf and nan exponent 0, so the
    rescale divides a non-finite v unscaled too.  Elsewhere the routes can differ, even where
    v.v is normal: the rescale halves (1, 1.5e-323, 0) and rounds 1.5e-323 to 2e-323.
    """
    if np.abs(np.frexp(v)[1]).max(initial=0) <= 254:
        lengths = norms(v) if lengths is None else lengths
        return v / np.maximum(lengths, 2.0**-255)[..., None]  # a zero vector's direction is 0
    _, e = np.frexp(np.abs(v).max(axis=-1, keepdims=True))
    u = np.ldexp(v, -e)
    return u / np.maximum(norms(u), 0.5)[..., None]


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each in a stack, ascending.

    The spectrum is that of the Hermitian part (m + m^dagger) / 2, so the
    result does not depend on which triangle of m LAPACK reads.  For complex
    input ``np.linalg.eigvalsh(UPLO="L")`` calls ``_umath_linalg.eigvalsh_lo``
    with signature "D->d" (numpy 2.4, ``numpy/linalg/_linalg.py``); so does this.
    """
    m = np.asarray(m, dtype=complex)
    return _umath_linalg.eigvalsh_lo((m + m.conj().swapaxes(-1, -2)) / 2.0, signature="D->d")


def symmetric3_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a real 3x3 matrix, or of each in a stack, descending.

    Computed by LAPACK from m itself rather than from m^T m, so the error
    stays near machine epsilon times the largest value at every scale of m.
    For real input ``np.linalg.svd(compute_uv=False)`` calls ``_umath_linalg.svd``
    with signature "d->d" (numpy 2.4, ``numpy/linalg/_linalg.py``); so does this.
    """
    return _umath_linalg.svd(np.asarray(m, dtype=float), signature="d->d")


def numeric_rank(m: np.ndarray, abs_tol: float | np.ndarray) -> int:
    """Number of singular values of m (per matrix of a stack) strictly above abs_tol.

    An array abs_tol broadcasts against m's stack: tolerances of shape (t, 1, ..., 1) give the
    (t, ...) ranks of every matrix at each tolerance from one decomposition.
    """
    return item_or_array(np.sum(symmetric3_singular_values(m) > abs_tol, axis=-1))


def det3(m: np.ndarray) -> float:
    """Determinant of a real 3x3 matrix, or of each in a stack, by cofactor expansion.

    One matrix is expanded in Python floats: the same IEEE operations in the same order, so the
    bits of its row in a stack, at a fraction of the cost of numpy scalars.  A nan result is
    returned as the one nan ``np.nan``: which operand's nan a sum of two keeps (and so its sign)
    depends on the machine code: numpy's vector loop and its scalar tail differ, so for a stack it
    followed a row's position and the stack's length.
    """
    e = np.asarray(m, dtype=float).T  # e[j, i] is entry (i, j)
    (e00, e01, e02), (e10, e11, e12), (e20, e21, e22) = e.tolist() if e.ndim == 2 else e
    det = (
        e00 * (e11 * e22 - e21 * e12)
        - e10 * (e01 * e22 - e21 * e02)
        + e20 * (e01 * e12 - e11 * e02)
    )
    if e.ndim == 2:
        return det if det == det else np.nan
    np.copyto(det, np.nan, where=np.isnan(det))
    return det.T


def orthogonal_complement_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal vectors spanning the plane orthogonal to a non-zero 3-vector v (or stacks).

    The first basis vector is built by crossing v with the standard basis
    vector along v's smallest component (lowest index on ties), which keeps
    the construction deterministic and far from degeneracy.
    """
    v = np.asarray(v, dtype=float)
    u1 = directions(np.cross(v, np.eye(3)[np.argmin(np.abs(v), axis=-1)]))
    return u1, directions(np.cross(directions(v), u1))
