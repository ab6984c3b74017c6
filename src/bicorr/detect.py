"""Separability and entanglement decisions for two-qubit states.

Three decision routes live here:

* the rank dichotomy: a pure state is separable exactly when its correlation
  matrix vanishes and entangled exactly when that matrix has full rank 3.  Its
  singular values are (k, k, k^2) in the concurrence k, so the verdict is
  taken on the largest one, k, at the scale the PPT oracle decides on;
* the three-probe protocol: against a fixed y, one oracle call per run tests
  three independent directions x for zero/non-zero covariance; a plane can hide
  at most two independent directions, so an entangled pure state must reveal
  itself within three probes, while a separable pure state shows three zeros.
  ``binary_protocol`` makes one run; ``exact_protocol`` makes a stack of runs
  with exact zero calls, with the same checks, zero rule, bits and label rule;
* independent oracles: the Schmidt rank of the amplitude matrix (pure states)
  and positivity of the partial transpose (any state), which never touch the
  correlation-matrix code path.

The protocol is sound only for pure states, and a state's purity is its
``CheckedState.pure``.  On mixed input it reports Indeterminate unless the caller
passes ``assume_pure=True``: the Werner family shows that zero correlations do not
certify separability there, nor non-zero correlations entanglement.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from bicorr.correlation import ObservablePair, _checked_pair, covariance_via_c
from bicorr.linalg import (
    BALL_TOL,
    GRAM_TOL,
    PSD_TOL,
    PURE_ENTANGLED_SV_TOL,
    ZERO_CORRELATION_TOL,
    _directions,
    det3,
    hermitian_eigenvalues,
    item_or_array,
    norms,
    orthogonal_complement_basis,
)
from bicorr.qstate import (
    CheckedState,
    _Frozen,
    _Value,
    _check_norm,
    _checked_bloch,
    _reals,
    _require,
    _set,
    check_bloch_components,
    density_from_pure,
    partial_transpose_b,
    validate_pure_state,
)

SEPARABLE = "Separable"
ENTANGLED = "Entangled"
INDETERMINATE = "Indeterminate"

RANK_DICHOTOMY = "RankDichotomy"
BINARY_PROTOCOL = "BinaryProtocol"
PPT_ORACLE = "PPTOracle"

DEFAULT_Y = np.array([0.0, 0.0, 1.0])
DEFAULT_XS = np.eye(3)

# Maps the checked probe directions (xs, y) to an iterable of (covariance, is_zero), one per x.
CorrOracle = Callable[[np.ndarray, np.ndarray], Iterable[tuple[float, bool]]]


class DependentProbes(ValueError):
    """Probe directions are not linearly independent."""


class ZeroVector(ValueError):
    """The fixed direction y is the zero vector."""


class Verdict(_Value):
    """A decider's label and the basis it was decided on; compared and hashed by value.  The
    numbers it was decided on are the caller's to read: the trace, or C's singular values."""

    __slots__ = _fields = ("label", "basis")

    def __init__(self, label: str, basis: str) -> None:
        _set(self, "label", label)
        _set(self, "basis", basis)


class Probe(_Frozen):
    """One probe read: the direction x, the covariance of the unit directions, a Python float on
    both routes (the exact call is made on it, the shot call on z), and the zero call."""

    __slots__ = _fields = ("x", "covariance", "is_zero")

    def __init__(self, x: np.ndarray, covariance: float, is_zero: bool) -> None:
        _set(self, "x", x)
        _set(self, "covariance", covariance)
        _set(self, "is_zero", is_zero)


class ProtocolTrace(_Frozen):
    """The fixed direction y and the probes read against it, in order."""

    __slots__ = _fields = ("y", "probes")

    def __init__(self, y: np.ndarray, probes: tuple[Probe, ...]) -> None:
        _set(self, "y", y)
        _set(self, "probes", probes)

    @property
    def measurements_used(self) -> int:
        return len(self.probes)


def _check_y(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y checked as a non-zero Bloch vector, and its lengths."""
    y, length = _checked_bloch(y, "y")
    if not length.all():  # a non-zero y can be too short for its length to be above 0
        _require((~y.any(axis=-1)).astype(float), 0.0, ZeroVector, "y{at} must be non-zero")
    return y, length


def find_zero_correlation_pair(rho: np.ndarray, y: np.ndarray) -> ObservablePair:
    """A pair (x, y) with zero covariance on rho, for any state and any y; stacks broadcast.

    x . (c y) = 0 is an orthogonality condition between two real 3-vectors,
    so a solution always exists: x is taken orthogonal to c y^, for y^ the direction of y, or
    the first standard basis vector where |c y^| < ZERO_CORRELATION_TOL.  y is checked before
    rho: a non-finite y raises ValueError, one outside the unit ball BlochOutOfBall, and a zero
    vector ZeroVector.
    """
    y, length = _check_y(y)
    c_y = (CheckedState.of(rho).c @ _directions(y, length)[..., None])[..., 0]
    vanishes = (norms(c_y) < ZERO_CORRELATION_TOL)[..., None]
    x = orthogonal_complement_basis(c_y)[0]  # a zero row has direction 0: no warning
    return _checked_pair(np.where(vanishes, np.array([1.0, 0.0, 0.0]), x), y)


def rank_says_entangled(rho: np.ndarray | CheckedState) -> bool:
    """The rank verdict, per state of a stack: sigma_max(c) > PURE_ENTANGLED_SV_TOL, on the
    state's ``CheckedState.singular_values``; only a raw array is checked."""
    return item_or_array(CheckedState.of(rho).singular_values[..., 0] > PURE_ENTANGLED_SV_TOL)


def pure_rank_verdict(rho: np.ndarray | CheckedState) -> Verdict:
    """Separable/Entangled verdict from the correlation matrix of a pure state.

    c vanishes for separable pure states and has full rank for entangled ones;
    the verdict is Entangled iff sigma_max(c), the concurrence, exceeds
    PURE_ENTANGLED_SV_TOL.  It takes one state, a ``CheckedState`` or a raw matrix, which is
    checked; a stack raises ValueError.
    """
    rho = CheckedState.of(rho)
    if rho.matrix.shape != (4, 4):
        raise ValueError(f"the rank verdict takes one state, got shape {rho.matrix.shape}")
    return Verdict(ENTANGLED if rank_says_entangled(rho) else SEPARABLE, RANK_DICHOTOMY)


def classify_pure_by_rank(psi: np.ndarray) -> Verdict:
    """Separable/Entangled verdict for a pure state from its correlation matrix.

    See ``pure_rank_verdict``; every validated pure state gets a verdict.
    """
    return pure_rank_verdict(density_from_pure(psi))


def _exact_calls(c: np.ndarray, x_units: np.ndarray, y_unit: np.ndarray) -> tuple:
    """The exact zero rule: c(x^, y^) per probe on the last axis, and whether each is zero.

    One ``covariance_via_c`` call covers every probe.  The directions are unit, so |c| at most
    ZERO_CORRELATION_TOL is zero: far above 4x4 round-off and far below every fixture's smallest
    non-zero covariance.
    """
    values = covariance_via_c(c[..., None, :, :], _checked_pair(x_units, y_unit[..., None, :]))
    return values, np.abs(values) <= ZERO_CORRELATION_TOL


_GRAM_MESSAGE = "probe Gram determinant{at} {worst:.3e} is not above " + f"{GRAM_TOL:g}"


def _check_probes(y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The checked (y, xs) and their unit directions, before any is measured; stacks broadcast.

    Well-formed input of equal stacks is accepted in one pass over the (..., 4, 3) stack of the
    three x and y: every component is bounded before any length is taken, so none overflows, and
    each length serves both the ball bound and the direction.  Every component is then at most
    1 + BALL_TOL, so only one below 2**-255 sends the set through ``_directions``' route test; the
    rest are divided by their lengths directly.  Either way y and the x get the bits of separate
    ``_directions`` calls.  Any other input, or a failed bound, goes to ``_check_probes_in_order``,
    which alone names the fault.  The default set (``DEFAULT_Y``, ``DEFAULT_XS`` themselves) was
    checked once, at import.
    """
    if y is DEFAULT_Y and xs is DEFAULT_XS:
        return _DEFAULT_PROBES
    y = _reals(y, "y")
    try:
        xs = _reals(xs, "probe set")
    except ValueError:  # y's faults come first, then this one
        return _check_probes_in_order(y, xs)
    if y.shape[-1:] == (3,) and xs.shape[-2:] == (3, 3) and y.shape[:-1] == xs.shape[:-2]:
        v = np.concatenate((xs, y[..., None, :]), axis=-2)  # the three x, then y
        magnitudes = np.abs(v)
        if magnitudes.max(initial=0.0) <= 1.0 + BALL_TOL:  # nan fails every bound
            lengths = norms(v)
            if lengths.max(initial=0.0) <= 1.0 + BALL_TOL and lengths[..., 3].all():
                # No component, so no length, below 2**-255: _directions' division, bit for bit.
                in_range = magnitudes.min(initial=1.0) >= 2.0**-255
                units = v / lengths[..., None] if in_range else _directions(v, lengths)
                gram = det3(units[..., :3, :]) ** 2  # a float for one run
                if (gram > GRAM_TOL) if y.ndim == 1 else (gram > GRAM_TOL).all():
                    return y, xs, units[..., 3, :], units[..., :3, :]
    return _check_probes_in_order(y, xs)


def _check_probes_in_order(y: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_check_probes`` as ordered checks, the first failing one raised, its stack index named.

    The order: y's shape, components, lengths and zero test, then the probe set's shape,
    components, Gram determinant and lengths, each over the whole stack before the next.
    """
    y, y_length = _check_y(y)
    xs = _reals(xs, "probe set")
    if xs.shape[-2:] != (3, 3):
        raise DependentProbes(f"need exactly 3 probe vectors, got shape {xs.shape}")
    check_bloch_components(xs, "probe set")
    lengths = norms(xs)
    units = _directions(xs, lengths)  # a zero x has direction 0, so a Gram determinant of 0
    gram = det3(units) ** 2  # det(U U^T) = det(U)^2
    # An independent set maps to -inf, so the worst entry is a dependent set's determinant.
    _require(np.where(gram > GRAM_TOL, -np.inf, gram), -np.inf, DependentProbes, _GRAM_MESSAGE)
    _check_norm(lengths, "x")
    return y, xs, _directions(y, y_length), units


# The bits of a fresh check, read-only with the defaults, so no caller or oracle can change them.
_DEFAULT_PROBES = _check_probes(DEFAULT_Y.copy(), DEFAULT_XS.copy())
for _array in (DEFAULT_Y, DEFAULT_XS, *_DEFAULT_PROBES):
    _array.flags.writeable = False

_LABELS = np.array([INDETERMINATE, SEPARABLE, ENTANGLED])


def _protocol_label(nonzero, pure):
    """The verdict of a run, per run of a stack: on pure input Entangled iff a probe is non-zero."""
    return _LABELS[pure * (1 + nonzero)]


def binary_protocol(
    rho: np.ndarray,
    y: np.ndarray = DEFAULT_Y,
    xs: np.ndarray = DEFAULT_XS,
    corr_oracle: CorrOracle | None = None,
    assume_pure: bool = False,
) -> tuple[Verdict, ProtocolTrace]:
    """Three-probe zero/non-zero correlation protocol against a fixed y.

    It takes one state, one y and one probe set; a stack of any raises ValueError
    (``exact_protocol`` runs a stack with the exact rule).  y
    and the whole probe set are checked before the first measurement: y a
    non-zero Bloch vector, xs of shape (3, 3), finite, with no component above
    1, linearly independent, and every Bloch vector in the unit ball.  The xs
    are then probed in order, stopping at the first non-zero covariance.  For
    pure input (``CheckedState.pure``, or with assume_pure) a non-zero probe means
    Entangled and three zeros mean Separable.  Mixed input yields Indeterminate either way; the
    trace records what was measured.

    Without corr_oracle the calls are exact, on ``CheckedState.c``: a checked state whose C was
    read already is not decomposed again.  corr_oracle(xs, y) replaces the exact rule with a
    finite-shot one: called once per run on the checked probes' unit directions, it yields
    (covariance, is_zero) per x, read up to the first non-zero call; running short raises
    ValueError.  On the default probes, the directions it receives and the trace's arrays are
    read-only.
    """
    rho = CheckedState.of(rho)
    y, xs, y_unit, x_units = _check_probes(y, xs)
    if rho.matrix.shape != (4, 4) or y.shape != (3,):
        raise ValueError(
            f"the protocol takes one state and one y, got shapes {rho.matrix.shape} and {y.shape}"
        )
    if xs.shape != (3, 3):
        raise ValueError(f"the protocol takes one probe set, got shape {xs.shape}")
    pure = assume_pure or rho.pure
    if corr_oracle is None:
        values, zero = _exact_calls(rho.c, x_units, y_unit)
        calls = zip(values.tolist(), zero.tolist())
    else:
        calls = corr_oracle(x_units, y_unit)

    probes = []
    for x, (value, is_zero) in zip(xs, calls, strict=True):
        probes.append(Probe(x=x, covariance=value, is_zero=is_zero))
        if not is_zero:
            break
    # Only the last probe can be non-zero: the loop stops there.
    verdict = Verdict(str(_protocol_label(not probes[-1].is_zero, pure)), BINARY_PROTOCOL)
    return verdict, ProtocolTrace(y=y, probes=tuple(probes))


def exact_protocol(
    rho: np.ndarray,
    y: np.ndarray = DEFAULT_Y,
    xs: np.ndarray = DEFAULT_XS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three-probe protocol with exact zero calls on a stack of runs: (labels, used, c).

    rho (..., 4, 4), y (..., 3) and xs (..., 3, 3) broadcast, one run per entry of the stack.
    They are checked as in ``binary_protocol``, a failure naming the stack index, and every probe
    of every run is measured in one ``covariance_via_c`` call on ``CheckedState.c``.  Returned,
    shaped like the stack: the verdict labels, the measurements used (the first non-zero probe,
    else 3), and on the last axis the three c(x^, y^).  A run's results are the bits of its
    one-state ``binary_protocol``: the label, ``measurements_used``, and the covariances of the
    probes it reads.
    """
    rho = CheckedState.of(rho)
    _, _, y_unit, x_units = _check_probes(y, xs)
    values, zero = _exact_calls(rho.c, x_units, y_unit)
    nonzero = ~zero
    found = nonzero.any(axis=-1)
    used = np.where(found, nonzero.argmax(axis=-1) + 1, 3)
    return _protocol_label(found, rho.pure), used, values


def schmidt_rank(psi: np.ndarray) -> int:
    """Schmidt rank (1 or 2) of a normalized pure state; an array of them for a stack.

    Uses the 2x2 amplitude matrix m with m[i, j] the amplitude of |a_i b_j>.
    Its concurrence is 2|det m| (Wootters, PRL 80, 2245, 1998), taken straight
    from the amplitudes, and the rank is 2 iff it exceeds PURE_ENTANGLED_SV_TOL,
    the rank verdict's cut.  Rank 1 means separable, 2 entangled.  This route
    is independent of the correlation-matrix machinery.
    """
    m = validate_pure_state(psi).T  # m[i] is amplitude i of every state
    det_m = (m[0] * m[3] - m[1] * m[2]).T
    return item_or_array(np.where(2.0 * np.abs(det_m) > PURE_ENTANGLED_SV_TOL, 2, 1))


def ppt_is_separable(rho: np.ndarray) -> bool:
    """Separability via positivity of the partial transpose; an array of verdicts for a stack.

    For two qubits this criterion is necessary and sufficient.  Subsystem B is
    transposed; both sides give the same spectrum, but fixing one keeps the
    output bit-reproducible.
    """
    eigenvalues = hermitian_eigenvalues(partial_transpose_b(rho))
    return item_or_array(eigenvalues[..., 0] >= -PSD_TOL)
