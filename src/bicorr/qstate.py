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
them take stacks, shape (..., 4, 4) or (..., 4), empty ones included.  Every
array threshold check of the package goes through `_require`, so a failed check on a
stack names the index of the first offending state.
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


def _require(deviation: np.ndarray, tol: float, error: type, message: str, core: int = 0) -> None:
    """Raise error(message) unless every entry of deviation is at most tol.

    One reduction decides, so nan fails and an empty stack passes.  message is formatted with
    ``worst``, the largest deviation as a float, and ``at``: " at stack index i, j" for the first
    failing entry, "" for one state.  The last ``core`` axes of deviation lie within a state.  A
    bool deviation must be cast to float: a bool maximum ignores the initial -inf.
    """
    worst = deviation.max(initial=-math.inf)
    if not worst <= tol:
        index = np.argwhere(~(deviation <= tol))[0][: deviation.ndim - core]
        at = f" at stack index {', '.join(map(str, index))}" if index.size else ""
        raise error(message.format(at=at, worst=float(worst)))


def validate_pure_state(psi: np.ndarray) -> np.ndarray:
    """Return psi as complex 4-vectors: no amplitude above 1 (so finite), unit norm."""
    psi = np.atleast_1d(np.asarray(psi, dtype=complex))
    if psi.shape[-1] != 4:
        raise InvalidState(f"pure state needs 4 amplitudes, got {psi.shape[-1]}")
    # Bounding every amplitude first keeps the norm from overflowing.
    magnitude = np.abs(psi)
    message = "amplitude{at} magnitude {worst!r} exceeds 1"
    _require(magnitude, 1.0 + NORM_TOL, NotNormalized, message, 1)
    message = "amplitude norm^2{at} differs from 1 by {worst:.3e}"
    _require(np.abs((magnitude**2).sum(axis=-1) - 1.0), NORM_TOL, NotNormalized, message)
    return psi


def _check_structure(rho: np.ndarray) -> np.ndarray:
    """Cheap checks shared by all operations: shape, |rho_ij| <= 1, Hermiticity, trace."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidState(f"density matrix must be 4x4, got shape {rho.shape}")
    # Bounding every entry first keeps the differences and the trace from overflowing.
    message = "density matrix{at} entry magnitude {worst!r} exceeds 1"
    _require(np.abs(rho), 1.0 + NORM_TOL, InvalidState, message, 2)
    message = "density matrix{at} is not Hermitian (deviation {worst:.3e})"
    _require(np.abs(rho - rho.conj().swapaxes(-1, -2)), HERMITIAN_TOL, InvalidState, message, 2)
    message = "density matrix{at} trace differs from 1 by {worst:.3e}"
    _require(np.abs(rho.trace(axis1=-2, axis2=-1) - 1.0), NORM_TOL, InvalidState, message)
    return rho


@dataclass(frozen=True, eq=False)
class CheckedState:
    """Read-only copy of a 4x4 matrix, or of a stack of them, that passed ``_check_structure``."""

    matrix: np.ndarray
    __iter__ = None  # rows are taken by index: one 4x4 state must not iterate as an empty stack

    def __post_init__(self) -> None:
        matrix = np.array(_check_structure(self.matrix))
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def of(cls, rho: np.ndarray | CheckedState) -> CheckedState:
        """rho as a CheckedState; only a raw array runs ``_check_structure``."""
        return rho if isinstance(rho, cls) else cls(rho)

    def __getitem__(self, index) -> CheckedState:
        """The states at index of a checked stack, not checked again; indexing a matrix raises."""
        state = object.__new__(CheckedState)
        object.__setattr__(state, "matrix", self.matrix[np.index_exp[index] + np.s_[:, :]])
        state.matrix.flags.writeable = False
        return state


def as_density_matrix(rho: np.ndarray | CheckedState) -> CheckedState:
    """Validate all density-matrix invariants, including positivity; return the CheckedState.

    This is the construction choke point for matrices coming from outside the
    package (files, user input).  Raises InvalidState naming the violated
    invariant.
    """
    state = CheckedState.of(rho)
    message = "density matrix{at} is not positive semidefinite (min eigenvalue -{worst:.3e})"
    _require(-hermitian_eigenvalues(state.matrix)[..., 0], PSD_TOL, InvalidState, message)
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
    message = "Pauli traces{at} have imaginary residue {worst:.3e}"
    _require(np.abs(traces.imag[..., 1:]), IMAG_TOL, InvalidState, message, 1)  # t_00 is checked
    t = traces.real.reshape(rho.shape)
    return BlochForm(a=t[..., 1:, 0], b=t[..., 0, 1:], f=t[..., 1:, 1:])


def bloch_assemble(bf: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from its Bloch form; inverse of bloch_decompose.

    The form is checked first: no entry above 1 in magnitude (so finite), then
    |a|, |b| <= 1, up to NORM_TOL.  These bounds do not imply positivity, so
    the assembled matrix is eigenvalue-checked; NotPositive is raised on failure.
    """
    a, b, f = (np.asarray(v, dtype=float) for v in (bf.a, bf.b, bf.f))
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,) or f.shape[-2:] != (3, 3):
        raise InvalidState("Bloch form needs two 3-vectors and a 3x3 tensor")
    t = np.ones(f.shape[:-2] + (4, 4))
    t[..., 1:, 0], t[..., 0, 1:], t[..., 1:, 1:] = a, b, f  # t_00 = Tr rho = 1
    # Bounding every entry first keeps the lengths of a and b from overflowing.
    message = "Bloch form{at} entry magnitude {worst!r} exceeds 1"
    _require(np.abs(t), 1.0 + NORM_TOL, InvalidState, message, 2)
    message = "local Bloch vector{at} of length {worst!r} is outside the unit ball"
    _require(np.maximum(norms(a), norms(b)), 1.0 + NORM_TOL, InvalidState, message)
    rho = 0.25 * (_PAULI_TABLE.conj() @ t.reshape(t.shape[:-2] + (16, 1))).reshape(t.shape)
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    message = "assembled matrix{at} has eigenvalue -{worst:.3e}; not a state"
    _require(-hermitian_eigenvalues(rho)[..., 0], PSD_TOL, NotPositive, message)
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
    """Raise BlochOutOfBall if a component of v, over its last axis, is not a ball coordinate.

    A component above 1 + BALL_TOL in magnitude or non-finite fails.  Checking the components
    first keeps a norm or product of v from overflowing before it is rejected.
    """
    message = name + "{at} component {worst!r} exceeds 1"
    _require(np.abs(v), 1.0 + BALL_TOL, BlochOutOfBall, message, 1)


def check_bloch_vector(x: np.ndarray, name: str) -> np.ndarray:
    """x as float 3-vectors, one or a stack; non-finite or out of the ball is BlochOutOfBall.

    name labels x in the error messages; the ball's slack is BALL_TOL.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] != 3:
        raise ValueError(f"{name} needs 3 components, got {x.shape[-1]}")
    check_bloch_components(x, name)
    return _check_norm(x, name)


def _check_norm(x: np.ndarray, name: str) -> np.ndarray:
    """x, float 3-vectors with checked components; outside the unit ball raises BlochOutOfBall."""
    length = np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])
    _require(length, 1.0 + BALL_TOL, BlochOutOfBall, name + "{at} norm {worst!r} exceeds 1")
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
