"""Dense linear-algebra kernels for the small fixed sizes used in this package.

Everything here operates on plain numpy arrays: real 3-vectors, real 3x3
matrices, and complex 4x4 Hermitian matrices.  Eigenvalues and singular
values come from LAPACK through numpy.linalg.  The kernels check nothing:
their callers pass matrices built from input that ``qstate``, ``correlation``
or ``detect`` has already checked.

The table below holds every tolerance of the package.  Each bounds a quantity
of order 1 (unit trace, unit ball, |c_ij| <= 1), so the values are absolute.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-9  # largest |rho - rho^dagger| entry of a state taken as Hermitian
NORM_TOL = 1e-9  # |q - 1| for q = norm^2, trace, probe length, probability sum; Bloch bounds
PSD_TOL = 1e-9  # most negative eigenvalue counted as >= 0: state positivity, PPT verdict
IMAG_TOL = 1e-10  # round-off of one 4x4 contraction: imaginary residue, negative probability
BALL_TOL = 1e-12  # largest excess over 1 of an observable's Bloch-vector norm
RANK_TOL = 1e-8  # singular value of c counted in its numeric rank (reported, decides nothing)
ZERO_CORRELATION_TOL = 1e-10  # largest |covariance| the exact oracle calls zero; |c y| alike
GRAM_TOL = 1e-9  # smallest accepted Gram determinant of the three probe directions
PURITY_TOL = 1e-9  # largest 1 - Tr(rho^2) at which the protocol treats a state as pure
# Concurrence above which a pure state is entangled (rank verdict, Schmidt oracle); its partial
# transpose has smallest eigenvalue -concurrence/2, so this is also the PPT verdict's cut.
PURE_ENTANGLED_SV_TOL = 2.0 * PSD_TOL


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    The spectrum is that of the Hermitian part (m + m^dagger) / 2, so the
    result does not depend on which triangle of m LAPACK reads.
    """
    m = np.asarray(m, dtype=complex)
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def symmetric3_singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a real 3x3 matrix, descending.

    Computed by LAPACK from m itself rather than from m^T m, so the error
    stays near machine epsilon times the largest value at every scale of m.
    """
    return np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)


def numeric_rank(m: np.ndarray, abs_tol: float = RANK_TOL) -> int:
    """Number of singular values of m strictly above abs_tol."""
    return int(np.sum(symmetric3_singular_values(m) > abs_tol))


def det3(m: np.ndarray) -> float:
    """Determinant of a real 3x3 matrix by cofactor expansion."""
    m = np.asarray(m, dtype=float)
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def orthogonal_complement_basis(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal vectors spanning the plane orthogonal to a non-zero 3-vector v.

    The first basis vector is built by crossing v with the standard basis
    vector along v's smallest component (lowest index on ties), which keeps
    the construction deterministic and far from degeneracy.
    """
    v = np.asarray(v, dtype=float)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    u1 = np.cross(v, axis)
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(v / np.linalg.norm(v), u1)
    u2 /= np.linalg.norm(u2)
    return u1, u2
