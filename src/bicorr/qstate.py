"""Two-qubit states: validation, Pauli expansion, and local observables.

The joint basis is ordered |a1 b1>, |a1 b2>, |a2 b1>, |a2 b2>, with subsystem
A as the left Kronecker factor.  Any density matrix rho on the joint space has
the expansion

    rho = 1/4 (I (x) I  +  a.sigma (x) I  +  I (x) b.sigma
               + sum_ij f_ij sigma_i (x) sigma_j)

with real local vectors a, b and a real 3x3 tensor f; `bloch_decompose` and
`bloch_assemble` convert between the two representations.

Validation happens at construction points (`validate_pure_state`,
`as_density_matrix`, `bloch_assemble`); operations on already-constructed
states only re-check the cheap structural invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bicorr.linalg import BALL_TOL, HERMITIAN_TOL, IMAG_TOL, NORM_TOL, PSD_TOL
from bicorr.linalg import hermitian_eigenvalues

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# Operator stacks for the expansion above: sigma_i (x) I, I (x) sigma_j,
# and sigma_i (x) sigma_j.
_A_OPS = np.stack([np.kron(s, I2) for s in PAULIS])
_B_OPS = np.stack([np.kron(I2, s) for s in PAULIS])
_F_OPS = np.stack([np.stack([np.kron(si, sj) for sj in PAULIS]) for si in PAULIS])
# Tr(rho P) = sum_ij rho_ij P_ji, so rho.reshape(16) @ _TRACE_TABLE gives the
# 15 traces against the stacked operators in the order a, b, f (row-major).
_TRACE_TABLE = np.ascontiguousarray(
    np.concatenate([_A_OPS, _B_OPS, _F_OPS.reshape(9, 4, 4)])
    .transpose(0, 2, 1)
    .reshape(15, 16)
    .T
)


class InvalidState(ValueError):
    """State violates a density-matrix or Bloch-form invariant."""


class NotNormalized(InvalidState):
    """Pure-state amplitudes do not have unit norm."""


class NotPositive(InvalidState):
    """Assembled matrix has a negative eigenvalue."""


class BlochOutOfBall(ValueError):
    """Observable Bloch vector lies outside the closed unit ball."""


def validate_pure_state(psi: np.ndarray) -> np.ndarray:
    """Return psi as a complex 4-vector, checking finiteness and normalization."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise InvalidState(f"pure state needs 4 amplitudes, got {psi.shape[0]}")
    if not np.isfinite(psi).all():
        raise InvalidState("pure state has non-finite amplitudes")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise NotNormalized(f"amplitude norm^2 = {norm_sq!r}, expected 1")
    return psi


def _check_structure(rho: np.ndarray) -> np.ndarray:
    """Cheap checks shared by all operations: shape, finiteness, Hermiticity, trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidState(f"density matrix must be 4x4, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidState("density matrix has non-finite entries")
    herm_dev = float(np.abs(rho - rho.conj().T).max())
    if herm_dev > HERMITIAN_TOL:
        raise InvalidState(f"density matrix is not Hermitian (deviation {herm_dev:.3e})")
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    if trace_dev > NORM_TOL:
        raise InvalidState(f"density matrix trace differs from 1 by {trace_dev:.3e}")
    return rho


def as_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate all density-matrix invariants, including positivity.

    This is the construction choke point for matrices coming from outside the
    package (files, user input).  Raises InvalidState naming the violated
    invariant.
    """
    rho = _check_structure(rho)
    eigenvalues = hermitian_eigenvalues(rho)
    if eigenvalues[0] < -PSD_TOL:
        raise InvalidState(
            f"density matrix is not positive semidefinite (min eigenvalue {eigenvalues[0]:.3e})"
        )
    return rho


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a normalized pure state."""
    psi = validate_pure_state(psi)
    return np.outer(psi, psi.conj())


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); equals 1 exactly for pure states."""
    rho = _check_structure(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Pauli-expansion parameters (a, b, f) of a two-qubit density matrix."""

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if a.shape != (3,) or b.shape != (3,) or f.shape != (3, 3):
            raise InvalidState("Bloch form needs two 3-vectors and a 3x3 tensor")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(f).all()):
            raise InvalidState("Bloch form has non-finite entries")
        if np.linalg.norm(a) > 1.0 + NORM_TOL or np.linalg.norm(b) > 1.0 + NORM_TOL:
            raise InvalidState("local Bloch vectors must lie in the unit ball")
        if np.abs(f).max() > 1.0 + NORM_TOL:
            raise InvalidState("correlation-tensor entries must lie in [-1, 1]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "f", f)


def bloch_decompose(rho: np.ndarray) -> BlochForm:
    """Extract (a, b, f) from rho via Pauli traces.

    a_i = Tr(rho sigma_i (x) I), b_j = Tr(rho I (x) sigma_j),
    f_ij = Tr(rho sigma_i (x) sigma_j).  The traces are real for Hermitian
    input; imaginary residue above IMAG_TOL raises InvalidState.
    """
    rho = _check_structure(rho)
    traces = rho.reshape(16) @ _TRACE_TABLE
    residue = float(np.abs(traces.imag).max())
    if residue > IMAG_TOL:
        raise InvalidState(f"Pauli traces have imaginary residue {residue:.3e}")
    real = traces.real
    return BlochForm(a=real[:3], b=real[3:6], f=real[6:].reshape(3, 3))


def bloch_assemble(bf: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from its Bloch form; inverse of bloch_decompose.

    The bounds on (a, b, f) do not imply positivity, so the assembled matrix
    is eigenvalue-checked; NotPositive is raised on failure.
    """
    rho = 0.25 * (
        I4
        + np.einsum("k,kij->ij", bf.a, _A_OPS)
        + np.einsum("k,kij->ij", bf.b, _B_OPS)
        + np.einsum("ab,abij->ij", bf.f, _F_OPS)
    )
    rho = (rho + rho.conj().T) / 2.0
    eigenvalues = hermitian_eigenvalues(rho)
    if eigenvalues[0] < -PSD_TOL:
        raise NotPositive(
            f"assembled matrix has eigenvalue {eigenvalues[0]:.3e}; not a state"
        )
    return rho


def partial_trace_A(rho: np.ndarray) -> np.ndarray:
    """Trace out subsystem A, returning the 2x2 reduced state of B."""
    rho = _check_structure(rho)
    return np.einsum("aiaj->ij", rho.reshape(2, 2, 2, 2))


def partial_trace_B(rho: np.ndarray) -> np.ndarray:
    """Trace out subsystem B, returning the 2x2 reduced state of A."""
    rho = _check_structure(rho)
    return np.einsum("ibjb->ij", rho.reshape(2, 2, 2, 2))


def partial_transpose_b(rho: np.ndarray) -> np.ndarray:
    """Partial transpose of rho over subsystem B."""
    rho = _check_structure(rho)
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def check_bloch_vector(x: np.ndarray, name: str) -> np.ndarray:
    """x as a float 3-vector: finite, and outside the unit ball raises BlochOutOfBall.

    name labels x in the error messages; the ball's slack is BALL_TOL.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (3,):
        raise ValueError(f"{name} needs 3 components, got {x.shape[0]}")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite components")
    norm = float(np.linalg.norm(x))
    if norm > 1.0 + BALL_TOL:
        raise BlochOutOfBall(f"{name} norm {norm!r} exceeds 1")
    return x


def _observable(x: np.ndarray) -> np.ndarray:
    return 0.5 * (I2 + np.einsum("k,kij->ij", x, PAULIS))


def observable_from_bloch(x: np.ndarray) -> np.ndarray:
    """Single-qubit observable 1/2 (I + x.sigma) for a Bloch vector in the unit ball.

    Eigenvalues are (1 +- |x|)/2, so the spectrum stays in [0, 1]; unit x gives
    a projector.  Covariances are bilinear in the Bloch vectors, so restricting
    to the ball never changes a zero/non-zero correlation decision.
    """
    return _observable(check_bloch_vector(x, "Bloch vector"))


def outcome_table(rho: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex 2x2 table T[s, t] = Tr(rho (Q_s (x) R_t)) for Bloch vectors x, y.

    Q_1 = Q = 1/2 (I + x.sigma) and Q_0 = I - Q, likewise R from y; x and y
    are not checked again (``ObservablePair`` has).  For projectors the table
    holds the joint outcome probabilities; for any x and y, with X = Q (x) I
    and Y = I (x) R, T[1, 1] = <XY>, row 1 sums to <X> and column 1 to <Y>.
    It is one contraction of rho[a, b, a', b'] = <a b|rho|a' b'> with the 2x2
    operators; no 4x4 operator is formed.
    """
    rho = _check_structure(rho)
    q, r = _observable(x), _observable(y)
    q_pair = np.array([I2 - q, q])
    r_pair = np.array([I2 - r, r])
    return np.einsum("ikjl,sji,tlk->st", rho.reshape(2, 2, 2, 2), q_pair, r_pair)
