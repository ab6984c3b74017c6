"""Two-qubit states: validation, Pauli expansion, and local observables.

The joint basis is ordered |a1 b1>, |a1 b2>, |a2 b1>, |a2 b2>, with subsystem
A as the left Kronecker factor.  Any density matrix rho on the joint space has
the expansion

    rho = 1/4 (I (x) I  +  a.sigma (x) I  +  I (x) b.sigma
               + sum_ij f_ij sigma_i (x) sigma_j)

with real local vectors a, b and a real 3x3 tensor f; `bloch_decompose` and
`bloch_assemble` convert between the two representations.

Validation happens at construction points (`validate_pure_state`,
`as_density_matrix`, `bloch_assemble`, `CheckedState`).  The state operations
take a `CheckedState` as it is and structure-check only a raw array.  All of
them take stacks, shape (..., 4, 4) or (..., 4); a failed state check names the index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bicorr.linalg import BALL_TOL, HERMITIAN_TOL, IMAG_TOL, NORM_TOL, PSD_TOL
from bicorr.linalg import hermitian_eigenvalues, item_or_array, norms

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
I2 = np.eye(2, dtype=complex)

# t_mn = Tr(rho sigma_m (x) sigma_n), sigma_0 = I, at index 4m + n, is the expansion
# above as [[1, b], [a, f]].  Tr(rho P) = sum_ij rho_ij P_ji, so t is
# rho.reshape(16) @ _PAULI_TABLE, and rho is _PAULI_TABLE.conj() @ t / 4.
_SIGMAS = np.concatenate([I2[None], PAULIS])
_PAULI_TABLE = np.ascontiguousarray(
    np.stack([np.kron(sm, sn) for sm in _SIGMAS for sn in _SIGMAS])
    .transpose(0, 2, 1)
    .reshape(16, 16)
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


def _at(bad: np.ndarray, core: int = 0) -> str:
    """' at stack index i' for the first True of bad; its last ``core`` axes lie within a state."""
    index = np.argwhere(bad)[0][: bad.ndim - core]
    return f" at stack index {', '.join(map(str, index))}" if index.size else ""


def validate_pure_state(psi: np.ndarray) -> np.ndarray:
    """Return psi as complex 4-vectors: finite, no amplitude above 1, unit norm."""
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    if psi.shape[-1] != 4:
        raise InvalidState(f"pure state needs 4 amplitudes, got {psi.shape[-1]}")
    # One reduction bounds every amplitude (nan if any is nan) before the norm can overflow.
    largest = float(np.abs(psi).max())
    if not math.isfinite(largest) and not np.isfinite(psi).all():  # |psi_i| can overflow
        raise InvalidState(f"pure state{_at(~np.isfinite(psi), 1)} has non-finite amplitudes")
    if largest > 1.0 + NORM_TOL:
        at = _at(np.abs(psi) > 1.0 + NORM_TOL, 1)
        raise NotNormalized(f"amplitude{at} magnitude {largest!r} exceeds 1")
    norm_sq = (np.abs(psi) ** 2).sum(axis=-1)
    bad = np.abs(norm_sq - 1.0) > NORM_TOL
    if bad.any():
        raise NotNormalized(f"amplitude norm^2{_at(bad)} = {float(norm_sq[bad][0])!r}, expected 1")
    return psi


def _check_structure(rho: np.ndarray) -> np.ndarray:
    """Cheap checks shared by all operations: shape, |rho_ij| <= 1, Hermiticity, trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidState(f"density matrix must be 4x4, got shape {rho.shape}")
    # One reduction bounds every entry (nan if any is nan) before a sum can overflow.
    largest = float(np.abs(rho).max())
    if not math.isfinite(largest) and not np.isfinite(rho).all():  # |rho_ij| can overflow
        raise InvalidState(f"density matrix{_at(~np.isfinite(rho), 2)} has non-finite entries")
    if largest > 1.0 + NORM_TOL:
        at = _at(np.abs(rho) > 1.0 + NORM_TOL, 2)
        raise InvalidState(f"density matrix{at} entry magnitude {largest!r} exceeds 1")
    herm_dev = float(np.abs(rho - rho.conj().swapaxes(-1, -2)).max())
    if herm_dev > HERMITIAN_TOL:
        at = _at(np.abs(rho - rho.conj().swapaxes(-1, -2)) > HERMITIAN_TOL, 2)
        raise InvalidState(f"density matrix{at} is not Hermitian (deviation {herm_dev:.3e})")
    trace_dev = np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0)
    if trace_dev.max() > NORM_TOL:
        at = _at(trace_dev > NORM_TOL)
        raise InvalidState(f"density matrix{at} trace differs from 1 by {trace_dev.max():.3e}")
    return rho


@dataclass(frozen=True, eq=False)
class CheckedState:
    """Read-only copy of a 4x4 matrix, or of a stack of them, that passed ``_check_structure``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(_check_structure(self.matrix))
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def of(cls, rho: np.ndarray | CheckedState) -> CheckedState:
        """rho as a CheckedState; only a raw array runs ``_check_structure``."""
        return rho if isinstance(rho, cls) else cls(rho)


def as_density_matrix(rho: np.ndarray | CheckedState) -> CheckedState:
    """Validate all density-matrix invariants, including positivity; return the CheckedState.

    This is the construction choke point for matrices coming from outside the
    package (files, user input).  Raises InvalidState naming the violated
    invariant.
    """
    state = CheckedState.of(rho)
    smallest = hermitian_eigenvalues(state.matrix)[..., 0]
    if smallest.min() < -PSD_TOL:
        raise InvalidState(
            f"density matrix{_at(smallest < -PSD_TOL)} is not positive semidefinite "
            f"(min eigenvalue {smallest.min():.3e})"
        )
    return state


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a normalized pure state (or of each in a stack)."""
    psi = validate_pure_state(psi)
    return psi[..., :, None] * psi[..., None, :].conj()


def purity(rho: np.ndarray | CheckedState) -> float:
    """Tr(rho^2), per state of a stack; equals 1 exactly for pure states."""
    rho = CheckedState.of(rho).matrix
    return item_or_array(np.einsum("...ij,...ji->...", rho, rho).real)


@dataclass(frozen=True, eq=False)
class BlochForm:
    """Pauli-expansion parameters (a, b, f) of a two-qubit state or stack; checks nothing."""

    a: np.ndarray
    b: np.ndarray
    f: np.ndarray


def bloch_decompose(rho: np.ndarray | CheckedState) -> BlochForm:
    """Extract (a, b, f) from rho via Pauli traces.

    a_i = Tr(rho sigma_i (x) I), b_j = Tr(rho I (x) sigma_j),
    f_ij = Tr(rho sigma_i (x) sigma_j).  The traces are real for Hermitian
    input; imaginary residue above IMAG_TOL raises InvalidState.
    """
    rho = CheckedState.of(rho).matrix
    traces = rho.reshape(rho.shape[:-2] + (16,)) @ _PAULI_TABLE
    residue = float(np.abs(traces.imag[..., 1:]).max())  # t_00 is the checked trace
    if residue > IMAG_TOL:
        raise InvalidState(f"Pauli traces have imaginary residue {residue:.3e}")
    t = traces.real.reshape(rho.shape)
    return BlochForm(a=t[..., 1:, 0], b=t[..., 0, 1:], f=t[..., 1:, 1:])


def bloch_assemble(bf: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from its Bloch form; inverse of bloch_decompose.

    The form is checked first: finite, |a|, |b| <= 1 and |f_ij| <= 1, up to
    NORM_TOL.  These bounds do not imply positivity, so the assembled matrix
    is eigenvalue-checked; NotPositive is raised on failure.
    """
    a, b, f = (np.asarray(v, dtype=float) for v in (bf.a, bf.b, bf.f))
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,) or f.shape[-2:] != (3, 3):
        raise InvalidState("Bloch form needs two 3-vectors and a 3x3 tensor")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(f).all()):
        raise InvalidState("Bloch form has non-finite entries")
    if max(norms(a).max(), norms(b).max()) > 1.0 + NORM_TOL:
        raise InvalidState("local Bloch vectors must lie in the unit ball")
    if np.abs(f).max() > 1.0 + NORM_TOL:
        raise InvalidState("correlation-tensor entries must lie in [-1, 1]")
    t = np.ones(f.shape[:-2] + (4, 4))
    t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:] = a, b, f  # t_00 = Tr rho = 1
    rho = 0.25 * (_PAULI_TABLE.conj() @ t.reshape(t.shape[:-2] + (16, 1))).reshape(t.shape)
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    smallest = hermitian_eigenvalues(rho)[..., 0]
    if smallest.min() < -PSD_TOL:
        at = _at(smallest < -PSD_TOL)
        raise NotPositive(f"assembled matrix{at} has eigenvalue {smallest.min():.3e}; not a state")
    return rho


def partial_trace_B(rho: np.ndarray | CheckedState) -> np.ndarray:
    """Trace out subsystem B, returning the 2x2 reduced state of A."""
    rho = CheckedState.of(rho).matrix
    return np.einsum("...ibjb->...ij", rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)))


def partial_transpose_b(rho: np.ndarray | CheckedState) -> np.ndarray:
    """Partial transpose of rho over subsystem B."""
    rho = CheckedState.of(rho).matrix
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)


def check_bloch_components(v: np.ndarray, name: str) -> None:
    """Raise if a component of the non-empty array v is not a Bloch-ball coordinate.

    A non-finite component raises ValueError, one above 1 + BALL_TOL in
    magnitude BlochOutOfBall.  One reduction does both, and checking the
    components first keeps a norm or product of v from overflowing before it
    is rejected.
    """
    largest = float(np.abs(v).max())  # nan if any component is nan
    if not math.isfinite(largest):
        raise ValueError(f"{name} has non-finite components")
    if largest > 1.0 + BALL_TOL:
        raise BlochOutOfBall(f"{name} component {largest!r} exceeds 1")


def check_bloch_vector(x: np.ndarray, name: str) -> np.ndarray:
    """x as float 3-vectors, one or a stack: finite; out of the unit ball is BlochOutOfBall.

    name labels x in the error messages; the ball's slack is BALL_TOL.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != 3:
        raise ValueError(f"{name} needs 3 components, got {x.shape[-1]}")
    check_bloch_components(x, name)
    return _check_norm(x, name)


def _check_norm(x: np.ndarray, name: str) -> np.ndarray:
    """x, float 3-vectors with checked components; outside the unit ball raises BlochOutOfBall."""
    if math.sqrt((x[..., None, :] @ x[..., :, None]).max()) > 1.0 + BALL_TOL:
        norm = norms(x)  # the first vector out of the ball is reported
        raise BlochOutOfBall(f"{name} norm {float(norm[norm > 1.0 + BALL_TOL][0])!r} exceeds 1")
    return x


def _observable(x: np.ndarray) -> np.ndarray:
    return 0.5 * (I2 + np.einsum("...k,kij->...ij", x, PAULIS))


def observable_from_bloch(x: np.ndarray) -> np.ndarray:
    """Single-qubit observable 1/2 (I + x.sigma) for a Bloch vector in the unit ball.

    Eigenvalues are (1 +- |x|)/2, so the spectrum stays in [0, 1]; unit x gives
    a projector.  Covariances are bilinear in the Bloch vectors, so restricting
    to the ball never changes a zero/non-zero correlation decision.
    """
    return _observable(check_bloch_vector(x, "Bloch vector"))


def outcome_table(rho: np.ndarray | CheckedState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Complex 2x2 table T[s, t] = Tr(rho (Q_s (x) R_t)) for Bloch vectors x, y; stacks broadcast.

    Q_1 = Q = 1/2 (I + x.sigma) and Q_0 = I - Q, likewise R from y; x and y
    are not checked again (``ObservablePair`` has).  For projectors the table
    holds the joint outcome probabilities; for any x and y, with X = Q (x) I
    and Y = I (x) R, T[1, 1] = <XY>, row 1 sums to <X> and column 1 to <Y>.
    It is one contraction of rho[a, b, a', b'] = <a b|rho|a' b'> with the 2x2
    operators; no 4x4 operator is formed.
    """
    rho = CheckedState.of(rho).matrix
    q, r = _observable(x), _observable(y)
    q_pair = np.array([I2 - q, q])
    r_pair = np.array([I2 - r, r])
    rho = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjl,s...ji,t...lk->...st", rho, q_pair, r_pair)
