"""Separability and entanglement decisions for two-qubit states.

Three decision routes live here:

* the rank dichotomy: a pure state is separable exactly when its correlation
  matrix vanishes and entangled exactly when that matrix has full rank 3.  Its
  singular values are (k, k, k^2) in the concurrence k, so the verdict is
  taken on the largest one, k, at the scale the PPT oracle decides on;
* the three-probe protocol: against a fixed y, three linearly independent
  probe directions x are tested for zero/non-zero covariance; a plane can hide
  at most two independent directions, so an entangled pure state must reveal
  itself within three probes, while a separable pure state shows three zeros;
* independent oracles: the Schmidt rank of the amplitude matrix (pure states)
  and positivity of the partial transpose (any state), which never touch the
  correlation-matrix code path.

The protocol is sound only for pure states.  On mixed input it reports
Indeterminate unless the caller passes ``assume_pure=True``: the Werner family
shows that zero correlations do not certify separability there, nor non-zero
correlations entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from bicorr.correlation import CorrMatrix, ObservablePair, correlation_matrix, covariance_via_c
from bicorr.linalg import (
    GRAM_TOL,
    PSD_TOL,
    PURE_ENTANGLED_SV_TOL,
    PURITY_TOL,
    ZERO_CORRELATION_TOL,
    det3,
    hermitian_eigenvalues,
    orthogonal_complement_basis,
)
from bicorr.qstate import (
    check_bloch_components,
    check_bloch_vector,
    density_from_pure,
    partial_transpose_b,
    purity,
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

# Maps an observable pair to (covariance value, is_zero decision).
CorrOracle = Callable[[ObservablePair], tuple[float, bool]]


class DependentProbes(ValueError):
    """Probe directions are not linearly independent."""


class ZeroVector(ValueError):
    """The fixed direction y is the zero vector."""


@dataclass(frozen=True)
class Verdict:
    label: str
    basis: str
    detail: str = ""


@dataclass(frozen=True, eq=False)
class Probe:
    x: np.ndarray
    covariance: float
    is_zero: bool


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    y: np.ndarray
    probes: tuple[Probe, ...]

    @property
    def measurements_used(self) -> int:
        return len(self.probes)


def find_zero_correlation_pair(rho: np.ndarray, y: np.ndarray) -> ObservablePair:
    """A pair (x, y) with zero covariance on rho, for any state and any y.

    x . (c y) = 0 is an orthogonality condition between two real 3-vectors,
    so a solution always exists: x is taken orthogonal to c y, or the first
    standard basis vector when c y vanishes.  y is checked before rho: a
    non-finite y raises ValueError, one outside the unit ball BlochOutOfBall,
    and the zero vector ZeroVector.
    """
    y = check_bloch_vector(y, "y")
    if float(np.linalg.norm(y)) == 0.0:
        raise ZeroVector("y must be non-zero")
    cm = correlation_matrix(rho)
    y_image = cm.c @ y
    if np.linalg.norm(y_image) < ZERO_CORRELATION_TOL:
        x = np.array([1.0, 0.0, 0.0])
    else:
        x = orthogonal_complement_basis(y_image)[0]
    return ObservablePair(x=x, y=y)


def pure_rank_verdict(cm: CorrMatrix) -> Verdict:
    """Separable/Entangled verdict from the correlation matrix of a pure state.

    c vanishes (rank 0) for separable pure states and has rank 3 for entangled
    ones; the verdict is Entangled iff sigma_max(c), the concurrence, exceeds
    PURE_ENTANGLED_SV_TOL.  The detail gives sigma_max, that threshold, rank(c)
    and all three singular values.
    """
    sigma_max = float(cm.singular_values[0])
    label = ENTANGLED if sigma_max > PURE_ENTANGLED_SV_TOL else SEPARABLE
    detail = (
        f"sigma_max(c) = {sigma_max!r} vs threshold {PURE_ENTANGLED_SV_TOL!r}; "
        f"rank(c) = {cm.rank}, singular values {cm.singular_values.tolist()}"
    )
    return Verdict(label, RANK_DICHOTOMY, detail)


def classify_pure_by_rank(psi: np.ndarray) -> Verdict:
    """Separable/Entangled verdict for a pure state from its correlation matrix.

    See ``pure_rank_verdict``; every validated pure state gets a verdict.
    """
    return pure_rank_verdict(correlation_matrix(density_from_pure(psi)))


def exact_corr_oracle(cm: CorrMatrix) -> CorrOracle:
    """Zero/non-zero oracle from an exact correlation matrix.

    The matrix is reused for every probe; |c| < ZERO_CORRELATION_TOL counts
    as zero, far above 4x4 arithmetic noise and far below every fixture's
    smallest non-zero covariance.
    """

    def oracle(pair: ObservablePair) -> tuple[float, bool]:
        value = covariance_via_c(cm, pair)
        return value, abs(value) < ZERO_CORRELATION_TOL

    return oracle


def _check_probes(y: np.ndarray, xs: np.ndarray) -> tuple[ObservablePair, ...]:
    """The three probe pairs (x_i, y), each checked before any is measured."""
    y = check_bloch_vector(y, "y")
    if float(np.linalg.norm(y)) == 0.0:
        raise ZeroVector("y must be non-zero")
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (3, 3):
        raise DependentProbes(f"need exactly 3 probe vectors, got shape {xs.shape}")
    check_bloch_components(xs, "probe set")
    gram = det3(xs @ xs.T)
    if gram <= GRAM_TOL:
        raise DependentProbes(f"probe Gram determinant {gram:.3e} is not above {GRAM_TOL:g}")
    return tuple(ObservablePair(x=x, y=y) for x in xs)


def binary_protocol(
    rho: np.ndarray,
    y: np.ndarray = DEFAULT_Y,
    xs: np.ndarray = DEFAULT_XS,
    corr_oracle: CorrOracle | None = None,
    assume_pure: bool = False,
) -> tuple[Verdict, ProtocolTrace]:
    """Three-probe zero/non-zero correlation protocol against a fixed y.

    y and the whole probe set are checked before the first measurement: y a
    non-zero Bloch vector, xs of shape (3, 3), finite, with no component above
    1, linearly independent, and every Bloch vector in the unit ball.  The xs
    are then probed in order, stopping at the first non-zero covariance.  For
    pure input (or with assume_pure) a non-zero probe means Entangled and
    three zeros mean Separable.  Mixed input yields Indeterminate either way,
    with the measured facts recorded in the verdict detail.

    corr_oracle may replace the exact decision rule (e.g. with a finite-shot
    one); it receives an ObservablePair and returns (covariance, is_zero).
    The default is ``exact_corr_oracle`` on rho's correlation matrix; a caller
    that already holds that matrix passes ``exact_corr_oracle(cm)``.
    """
    purity_value = purity(rho)  # validates rho's structure
    pairs = _check_probes(y, xs)
    if corr_oracle is None:
        corr_oracle = exact_corr_oracle(correlation_matrix(rho))

    probes = []
    for pair in pairs:
        value, is_zero = corr_oracle(pair)
        probes.append(Probe(x=pair.x, covariance=value, is_zero=is_zero))
        if not is_zero:
            break
    trace = ProtocolTrace(y=pairs[0].y, probes=tuple(probes))

    # Only the last probe can be non-zero: the loop stops there.
    nonzero = not probes[-1].is_zero
    if assume_pure or purity_value >= 1.0 - PURITY_TOL:
        label = ENTANGLED if nonzero else SEPARABLE
        detail = (
            f"non-zero correlation at probe {len(probes)}"
            if nonzero
            else "all 3 probed correlations are zero"
        )
    else:
        label = INDETERMINATE
        detail = (
            "non-zero correlation on mixed input"
            if nonzero
            else "zero correlations on mixed input do not certify separability"
        )
    return Verdict(label, BINARY_PROTOCOL, detail), trace


def schmidt_rank(psi: np.ndarray) -> int:
    """Schmidt rank (1 or 2) of a normalized pure state.

    Uses the 2x2 amplitude matrix m with m[i, j] the amplitude of |a_i b_j>.
    Its concurrence is 2|det m| (Wootters, PRL 80, 2245, 1998), taken straight
    from the amplitudes, and the rank is 2 iff it exceeds PURE_ENTANGLED_SV_TOL,
    the rank verdict's cut.  Rank 1 means separable, 2 entangled.  This route
    is independent of the correlation-matrix machinery.
    """
    m = validate_pure_state(psi).reshape(2, 2)
    det_m = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return 2 if 2.0 * abs(det_m) > PURE_ENTANGLED_SV_TOL else 1


def ppt_is_separable(rho: np.ndarray) -> bool:
    """Separability via positivity of the partial transpose.

    For two qubits this criterion is necessary and sufficient.  Subsystem B is
    transposed; both sides give the same spectrum, but fixing one keeps the
    output bit-reproducible.
    """
    eigenvalues = hermitian_eigenvalues(partial_transpose_b(rho))
    return bool(eigenvalues[0] >= -PSD_TOL)
