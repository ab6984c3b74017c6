"""Two-qubit states: validation, Pauli expansion, and local observables.

The joint basis is ordered |a1 b1>, |a1 b2>, |a2 b1>, |a2 b2>, with subsystem
A as the left Kronecker factor.  Any density matrix rho on the joint space has
the expansion

    rho = 1/4 (I (x) I  +  a.sigma (x) I  +  I (x) b.sigma
               + sum_ij f_ij sigma_i (x) sigma_j)

with real local vectors a, b and a real 3x3 tensor f; `bloch_decompose` and
`bloch_assemble` convert between the two representations.

Validation happens at construction points (`validate_pure_state`,
`as_density_matrix`, `bloch_assemble`, `CheckedState`), and each state invariant has one owner
and one cut: `_check_structure` owns Hermiticity and the trace, `as_density_matrix` positivity;
no operation checks them again.  A pure state's owner is `validate_pure_state`: |psi><psi| is
Hermitian to round-off and its trace is psi's norm^2, so `density_from_pure` builds its
`CheckedState` with no `_check_structure`, and that state is pure (`.pure`); any other state reads
Tr rho^2 once, at the one `PURITY_TOL` cut.  Construction alone owns the scale: `.matrix` is the
state divided by its trace, so no reader carries Tr rho.  A state may be off Hermitian by
HERMITIAN_TOL, and its verdicts are about its Hermitian part H = (rho + rho^dagger)/2: the Bloch
form, the shot cells and `covariance_direct` read real parts, since Re Tr(rho P) = Tr(H P) for a
Hermitian P, and the eigenvalues are those of H.  The state operations take a `CheckedState` as
it is and structure-check only a raw array; a `CheckedState` keeps its Bloch form, correlation
matrix C and C's singular values once read (`.bloch`, `.c`, `.singular_values`), so no reader
derives them again.  All of them take stacks, shape (..., 4, 4) or (..., 4), empty ones included.
Every array threshold check of the package goes through `_require`, so a failed check on a stack
names the index of the first offending state.  Every integer input (seeds, counts, trial budgets)
goes through `_integers`, every other numeric one through `_reals`.

The package's read-only records (`CheckedState` and `BlochForm` here, and those of `correlation`,
`detect`, `shotsim` and `states`) are plain classes on one frozen base, `_Frozen`, rather than
dataclasses: generating a dataclass's methods, and importing `dataclasses`, would cost every
process's start-up more than the analysis of a state.  The values `detect.Verdict`,
`shotsim.ShotConfig` and `shotsim.ShotRecord` compare and hash by their fields (`_Value`).
"""

from __future__ import annotations

import math
import reprlib
from functools import cached_property

import numpy as np

from bicorr.linalg import BALL_TOL, HERMITIAN_TOL, NORM_TOL, PSD_TOL, PURITY_TOL
from bicorr.linalg import hermitian_eigenvalues, item_or_array, norms, symmetric3_singular_values

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
I2 = np.eye(2, dtype=complex)

# t_mn = Tr(rho sigma_m (x) sigma_n), sigma_0 = I, at index 4m + n, is the expansion
# above as [[1, b], [a, f]].  Tr(rho P) = sum_ij rho_ij P_ji, so t is
# rho.reshape(16) @ _PAULI_TABLE, and rho is _PAULI_TABLE.conj() @ t / 4.
# The 16 products sigma_m (x) sigma_n come from one broadcast product, with np.kron's bits
# (np.einsum's differ in signed zeros).
_SIGMAS = np.concatenate([I2[None], PAULIS])
_PAULI_TABLE = np.ascontiguousarray(
    (_SIGMAS[:, None, :, None, :, None] * _SIGMAS[None, :, None, :, None, :])
    .reshape(16, 4, 4)
    .transpose(0, 2, 1)
    .reshape(16, 16)
    .T
)


def _pauli_traces(matrix: np.ndarray) -> np.ndarray:
    """The 16 real traces Re t_mn of each matrix, at index 4m + n: the traces of its Hermitian
    part, since Re Tr(rho P) = Tr(H P) for a Hermitian P."""
    return (matrix.reshape(matrix.shape[:-2] + (16,)) @ _PAULI_TABLE).real


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

    One reduction decides, so nan fails and an empty stack passes; one state's scalar deviation is
    compared as it is, with no reduction, to the same effect.  message is formatted with
    ``worst``, the largest deviation as a float, and ``at``: " at stack index i, j" for the first
    failing entry, "" for one state.  The last ``core`` axes of deviation lie within a state.  A
    bool deviation must be cast to float: a bool maximum ignores the initial -inf.
    """
    worst = deviation if deviation.ndim == 0 else deviation.max(initial=-math.inf)
    if not worst <= tol:
        index = np.argwhere(~(deviation <= tol))[0][: deviation.ndim - core]
        at = f" at stack index {', '.join(map(str, index))}" if index.size else ""
        raise error(message.format(at=at, worst=float(worst)))


def _integers(value, name: str, low: int, high: float = math.inf, stack: bool = False):
    """value as a Python int in [low, high), or with stack a stack of them as an object array; a
    bool, float, str, None or nested entry fails.  A stack passes by types, min and max alone."""
    if type(value) is int and low <= value < high:
        return value
    bounds = f"of at least {low}" if high == math.inf else f"from {low} to {high - 1}"
    try:
        entries = np.array(value, dtype=object) if stack else None
    except ValueError:  # arrays of unequal shapes: no object array holds them
        message = f"{name} must be an integer {bounds}, got {reprlib.repr(value)}"
        raise ValueError(message) from None
    flat, shape = (entries.reshape(-1).tolist(), entries.shape) if stack else ([value], ())
    types = set(map(type, flat))
    integral = {t for t in types if issubclass(t, (int, np.integer)) and t is not bool}
    if types == integral:
        numbers = flat if types <= {int} else list(map(int, flat))
        if not numbers or low <= min(numbers) and max(numbers) < high:
            return np.array(numbers, dtype=object).reshape(shape) if stack else numbers[0]
    i = next(i for i, e in enumerate(flat) if type(e) not in integral or not low <= e < high)
    at = f" at stack index {', '.join(map(str, np.unravel_index(i, shape)))}" if shape else ""
    raise ValueError(f"{name}{at} must be an integer {bounds}, got {reprlib.repr(flat[i])}")


def _reals(value, name: str, dtype: type = float) -> np.ndarray:
    """value, a number or a stack of them, as a float array, or a complex one for dtype complex.
    A numpy array is judged by its dtype, anything else by the entry types of one object array (a
    bool, str, None, dict or list fails), which is then cast: an int past a float's range fails."""
    real = dtype is float
    try:  # ValueError: arrays of unequal shapes, which no object array holds
        if isinstance(value, np.ndarray):
            values, admitted = value, value.dtype.kind in ("iuf" if real else "iufc")
        else:
            values = np.array(value, dtype=object)
            types = set(map(type, values.ravel().tolist()))
            numbers = (int, float, np.integer, np.floating if real else (complex, np.number))
            admitted = types <= {int, float} or all(  # what json reads passes at once
                issubclass(t, numbers) and t is not bool for t in types
            )
        if admitted:
            return values.astype(dtype, copy=False)
    except (ValueError, OverflowError):  # OverflowError: an int past a float's range
        pass
    number = "a real number" if real else "a number"
    raise ValueError(f"{name} must be {number} or a stack of them, got {reprlib.repr(value)}")


def validate_pure_state(psi: np.ndarray) -> np.ndarray:
    """Return psi as complex 4-vectors: no amplitude above 1 (so finite), unit norm."""
    psi = np.atleast_1d(_reals(psi, "amplitudes", complex))
    if psi.shape[-1] != 4:
        raise InvalidState(f"pure state needs 4 amplitudes, got {psi.shape[-1]}")
    # Bounding every amplitude first keeps the norm from overflowing.
    magnitude = np.abs(psi)
    message = "amplitude{at} magnitude {worst!r} exceeds 1"
    _require(magnitude, 1.0 + NORM_TOL, NotNormalized, message, 1)
    message = "amplitude norm^2{at} differs from 1 by {worst:.3e}"
    _require(np.abs((magnitude**2).sum(axis=-1) - 1.0), NORM_TOL, NotNormalized, message)
    return psi


def _check_structure(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cheap checks shared by all operations (shape, |rho_ij| <= 1, Hermiticity, trace): rho, Tr."""
    rho = _reals(rho, "density matrix", complex)
    if rho.shape[-2:] != (4, 4):
        raise InvalidState(f"density matrix must be 4x4, got shape {rho.shape}")
    # Bounding every entry first keeps the differences and the trace from overflowing.
    message = "density matrix{at} entry magnitude {worst!r} exceeds 1"
    _require(np.abs(rho), 1.0 + NORM_TOL, InvalidState, message, 2)
    message = "density matrix{at} is not Hermitian (deviation {worst:.3e})"
    _require(np.abs(rho - rho.conj().swapaxes(-1, -2)), HERMITIAN_TOL, InvalidState, message, 2)
    trace = rho.trace(axis1=-2, axis2=-1)
    message = "density matrix{at} trace differs from 1 by {worst:.3e}"
    _require(np.abs(trace - 1.0), NORM_TOL, InvalidState, message)
    return rho, trace.real


def _unit_trace(matrix: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """C-contiguous matrix / trace, read-only, real and imaginary parts divided apart: a trace of
    exactly 1.0 keeps every bit, signed zeros too (a complex division by trace + 0j need not)."""
    unit = (matrix.view(float) / trace[..., None, None]).view(complex)
    unit.flags.writeable = False
    return unit


_set = object.__setattr__  # sets a field past a record's frozen __setattr__


class _Frozen:
    """Base of the package's read-only records: each subclass's __init__ sets its fields with
    ``_set``, and its repr names the fields of ``_fields``.  Assigning or deleting an attribute
    raises ``dataclasses.FrozenInstanceError``; a record compares and hashes by identity unless it
    is a ``_Value``.  A record holds its fields in ``__slots__`` unless a ``cached_property`` or a
    ``__dict__`` write needs a dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state) -> None:
        """Restore a copy or an unpickled record from its __dict__, or its (None, slots) pair."""
        for name, value in (state[1] if type(state) is tuple else state).items():
            _set(self, name, value)


class _Value(_Frozen):
    """A record compared by value, by ``np.array_equal`` on each field (one bool for a stack too),
    and hashed as its fields' tuple, so a record that holds an array has no hash."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, n) for n in self._fields))


class CheckedState(_Frozen):
    """A 4x4 matrix, or a stack of them, that passed ``_check_structure``, or the |psi><psi| of
    amplitudes that passed ``validate_pure_state`` (``density_from_pure``), read-only and divided
    by its trace Re Tr rho as ``matrix``.  The input as given is kept, read-only, for the document
    echo alone: a checked matrix as ``given``, a pure state's checked psi as ``amplitudes``.

    Its purity (known from the start for amplitudes), Bloch form, correlation matrix C and C's
    singular values are computed when first read and kept with it, so every reader of one state
    shares them.  It is a frozen record (``_Frozen``) with a ``__dict__``, where the
    ``cached_property``s keep their values; the constructor takes the matrix alone, so no caller
    can claim amplitudes or purity.
    """

    _fields = ("matrix",)
    amplitudes: np.ndarray | None = None
    given: np.ndarray | None = None

    def __init__(self, matrix: np.ndarray) -> None:
        given, trace = _check_structure(matrix)
        given = np.array(given, order="C")
        given.flags.writeable = False
        vars(self).update(given=given, matrix=_unit_trace(given, trace))

    @classmethod
    def of(cls, rho: np.ndarray | CheckedState) -> CheckedState:
        """rho as a CheckedState; only a raw array runs ``_check_structure``."""
        return rho if isinstance(rho, cls) else cls(rho)

    @cached_property
    def pure(self) -> bool | np.ndarray:
        """Whether the state is pure: True for a state or stack built by ``density_from_pure``,
        else whether Tr rho^2 >= 1 - PURITY_TOL, per state of a stack.  The protocol is sound only
        where it holds."""
        return purity(self) >= 1.0 - PURITY_TOL

    @cached_property
    def bloch(self) -> BlochForm:
        """``bloch_decompose`` of the state."""
        return bloch_decompose(self)

    @cached_property
    def c(self) -> np.ndarray:
        """``correlation.correlation_matrix`` of the state, (..., 3, 3), built from ``bloch``."""
        from bicorr import correlation  # which imports this module; looked up when first read

        return correlation.correlation_matrix(self)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """``symmetric3_singular_values`` of ``c``, descending: the rank deciders read them."""
        return symmetric3_singular_values(self.c)


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


def density_from_pure(psi: np.ndarray) -> CheckedState:
    """The CheckedState of |psi><psi|, divided by its own trace, for normalized amplitudes psi (or
    each in a stack), keeping a read-only copy of the checked psi as ``amplitudes``.  The amplitude
    check is its only check: ``_check_structure`` would repeat it, and a few ulps from the norm cut
    refuse amplitudes it accepts."""
    psi = np.array(validate_pure_state(psi))
    psi.flags.writeable = False
    matrix = _projector(psi)
    matrix = _unit_trace(matrix, matrix.trace(axis1=-2, axis2=-1).real)
    state = object.__new__(CheckedState)
    vars(state).update(matrix=matrix, amplitudes=psi, pure=True)  # pure by construction
    return state


def _projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| of checked amplitudes, or of each in a stack."""
    return psi[..., :, None] * psi[..., None, :].conj()


def purity(rho: np.ndarray | CheckedState) -> float:
    """Tr(rho^2), per state of a stack; equals 1 exactly for pure states."""
    rho = CheckedState.of(rho).matrix
    return item_or_array(np.einsum("...ij,...ji->...", rho, rho).real)


class BlochForm(_Frozen):
    """Pauli-expansion parameters (a, b, f) of a two-qubit state or stack; checks nothing."""

    __slots__ = _fields = ("a", "b", "f")

    def __init__(self, a: np.ndarray, b: np.ndarray, f: np.ndarray) -> None:
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "f", f)


def bloch_decompose(rho: np.ndarray | CheckedState) -> BlochForm:
    """Extract (a, b, f) from rho via Pauli traces.

    a_i = Tr(rho sigma_i (x) I), b_j = Tr(rho I (x) sigma_j),
    f_ij = Tr(rho sigma_i (x) sigma_j), each the real part: the form of the Hermitian part.
    """
    rho = CheckedState.of(rho).matrix
    t = _pauli_traces(rho).reshape(rho.shape)
    return BlochForm(a=t[..., 1:, 0], b=t[..., 0, 1:], f=t[..., 1:, 1:])


def bloch_assemble(bf: BlochForm) -> np.ndarray:
    """Rebuild the density matrix from its Bloch form; inverse of bloch_decompose.

    The form is checked first: no entry above 1 in magnitude (so finite), then
    |a|, |b| <= 1, up to NORM_TOL.  These bounds do not imply positivity, so
    the assembled matrix is eigenvalue-checked; NotPositive is raised on failure.
    Stacks of a, b and f broadcast against each other.
    """
    a, b, f = (_reals(v, "Bloch form") for v in (bf.a, bf.b, bf.f))
    if a.shape[-1:] != (3,) or b.shape[-1:] != (3,) or f.shape[-2:] != (3, 3):
        raise InvalidState("Bloch form needs two 3-vectors and a 3x3 tensor")
    try:
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1], f.shape[:-2])
    except ValueError:
        raise InvalidState(
            f"Bloch form stacks {a.shape}, {b.shape} and {f.shape} do not broadcast"
        ) from None
    t = np.ones(shape + (4, 4))
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
    return _checked_bloch(x, name)[0]


def _checked_bloch(x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """x checked as by ``check_bloch_vector``, and its lengths norms(x), taken once."""
    x = np.atleast_1d(_reals(x, name))
    if x.shape[-1] != 3:
        raise ValueError(f"{name} needs 3 components, got {x.shape[-1]}")
    check_bloch_components(x, name)
    length = norms(x)
    _check_norm(length, name)
    return x, length


def _check_norm(length: np.ndarray, name: str) -> None:
    """Raise BlochOutOfBall if a length of 3-vectors with checked components exceeds 1."""
    _require(length, 1.0 + BALL_TOL, BlochOutOfBall, name + "{at} norm {worst!r} exceeds 1")


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
    operators; no 4x4 operator is formed.  The shot simulator takes its cells from the Pauli
    traces instead, so this route serves ``covariance_direct`` as the independent cross-check.
    """
    rho = CheckedState.of(rho).matrix
    q, r = _observable(x), _observable(y)
    q_pair = np.array([I2 - q, q])
    r_pair = np.array([I2 - r, r])
    rho = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjl,s...ji,t...lk->...st", rho, q_pair, r_pair)
