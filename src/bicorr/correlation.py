"""Covariances of local observables and the 3x3 correlation matrix.

For observables X = Q (x) I and Y = I (x) R with Bloch vectors x and y, the
covariance c(X, Y) = <XY> - <X><Y> equals (1/4) x . (f - a b^T) . y, which
motivates the correlation matrix c = f - a b^T.  `covariance_direct`
deliberately evaluates the trace formula instead of this shortcut: it
contracts rho with Q and R directly (``qstate.outcome_table``) and never
forms the Bloch parameters, so the two routes stay independent and can
cross-check each other.  Both are about the state's Hermitian part: the Bloch form and the
real part of the outcome table are its values.  Stacks of states and vectors give arrays of
results.
"""

from __future__ import annotations

import numpy as np

from bicorr.linalg import item_or_array
from bicorr.qstate import CheckedState, _Frozen, _set, check_bloch_vector, outcome_table


class ObservablePair(_Frozen):
    """Bloch vectors (x, y) defining the local observables Q_A and R_B; stacks of them broadcast."""

    _fields = ("x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x, y = check_bloch_vector(x, "x"), check_bloch_vector(y, "y")
        try:
            np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        except ValueError:  # every use of the pair would fail inside numpy
            message = f"x of shape {x.shape} and y of shape {y.shape} do not broadcast"
            raise ValueError(message) from None
        _set(self, "x", x)
        _set(self, "y", y)


def _checked_pair(x: np.ndarray, y: np.ndarray) -> ObservablePair:
    """The pair of float 3-vectors that the caller has checked as Bloch vectors."""
    pair = object.__new__(ObservablePair)
    pair.__dict__.update(x=x, y=y)
    return pair


def covariance_direct(rho: np.ndarray, pair: ObservablePair) -> float:
    """c(X, Y) from the trace formula, contracting rho with Q and R directly.

    With T[s, t] = Re Tr(rho (Q_s (x) R_t)) from ``outcome_table``, the table of the Hermitian
    part, <XY> = T11, <X> = T10 + T11 and <Y> = T01 + T11.
    """
    table = outcome_table(rho, pair.x, pair.y).real
    joint = table[..., 1, 1]
    return item_or_array(joint - (table[..., 1, 0] + joint) * (table[..., 0, 1] + joint))


def correlation_matrix(state: np.ndarray | CheckedState) -> np.ndarray:
    """Correlation matrix c = f - a b^T of a state, shape (..., 3, 3), from its ``.bloch``.

    A raw array is checked first, so no unchecked form enters; a caller that shares one C reads
    ``CheckedState.c``, and its singular values ``CheckedState.singular_values``.  A pure state of
    concurrence k has singular values (k, k, k^2); the separability verdict is taken on the
    largest (``detect.pure_rank_verdict``).
    """
    bf = CheckedState.of(state).bloch
    return bf.f - bf.a[..., :, None] * bf.b[..., None, :]


def covariance_via_c(c: np.ndarray, pair: ObservablePair) -> float:
    """c(X, Y) = (1/4) x . c . y from a precomputed correlation matrix c, shape (..., 3, 3)."""
    return item_or_array((0.25 * pair.x[..., None, :] @ c @ pair.y[..., :, None])[..., 0, 0])
