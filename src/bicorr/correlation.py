"""Covariances of local observables and the 3x3 correlation matrix.

For observables X = Q (x) I and Y = I (x) R with Bloch vectors x and y, the
covariance c(X, Y) = <XY> - <X><Y> equals (1/4) x . (f - a b^T) . y, which
motivates the correlation matrix c = f - a b^T.  `covariance_direct`
deliberately evaluates the trace formula instead of this shortcut: it
contracts rho with Q and R directly (``qstate.outcome_table``) and never
forms the Bloch parameters, so the two routes stay independent and can
cross-check each other.  Stacks of states and vectors give arrays of results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from bicorr.linalg import IMAG_TOL, item_or_array, symmetric3_singular_values
from bicorr.qstate import CheckedState, InvalidState, _require, check_bloch_vector, outcome_table


@dataclass(frozen=True, eq=False)
class ObservablePair:
    """Bloch vectors (x, y) defining the local observables Q_A and R_B."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", check_bloch_vector(self.x, "x"))
        object.__setattr__(self, "y", check_bloch_vector(self.y, "y"))


def _checked_pair(x: np.ndarray, y: np.ndarray) -> ObservablePair:
    """The pair of float 3-vectors that the caller has checked as Bloch vectors."""
    pair = object.__new__(ObservablePair)
    pair.__dict__.update(x=x, y=y)
    return pair


@dataclass(frozen=True, eq=False)
class CorrMatrix:
    """Correlation matrix c = f - a b^T; its singular values are computed when first read."""

    c: np.ndarray

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The singular values of c, descending."""
        return symmetric3_singular_values(self.c)


def covariance_direct(rho: np.ndarray, pair: ObservablePair) -> float:
    """c(X, Y) from the trace formula, contracting rho with Q and R directly.

    With T[s, t] = Tr(rho (Q_s (x) R_t)) from ``outcome_table``,
    <XY> = T11, <X> = T10 + T11 and <Y> = T01 + T11.  The imaginary residue
    of the covariance must stay below IMAG_TOL and is discarded.
    """
    table = outcome_table(rho, pair.x, pair.y)
    joint = table[..., 1, 1]
    value = joint - (table[..., 1, 0] + joint) * (table[..., 0, 1] + joint)
    message = "covariance{at} has imaginary residue {worst:.3e}"
    _require(np.abs(value.imag), IMAG_TOL, InvalidState, message)
    return item_or_array(value.real)


def correlation_matrix(state: np.ndarray | CheckedState) -> CorrMatrix:
    """Correlation matrix of a state, from its ``CheckedState.bloch``; singular values when read.

    A raw array is checked first, so no unchecked form enters; a caller that shares one C reads
    ``CheckedState.cm``.  A pure state of concurrence k has singular values (k, k, k^2); the
    separability verdict is taken on the largest (``detect.pure_rank_verdict``).
    """
    bf = CheckedState.of(state).bloch
    return CorrMatrix(c=bf.f - bf.a[..., :, None] * bf.b[..., None, :])


def covariance_via_c(cm: CorrMatrix, pair: ObservablePair) -> float:
    """c(X, Y) = (1/4) x . c . y from a precomputed correlation matrix."""
    return item_or_array((0.25 * pair.x[..., None, :] @ cm.c @ pair.y[..., :, None])[..., 0, 0])
