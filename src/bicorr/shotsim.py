"""Finite-shot simulation of joint projective measurements.

Unit Bloch vectors make Q and R projectors, and since X = Q (x) I and
Y = I (x) R act on different factors they commute: a simultaneous measurement
samples the four-cell product eigenbasis, so ``sample_joint`` takes unit
vectors only.  ``joint_outcome_probabilities`` takes every ``ObservablePair``:
in the Bloch ball P_1 = 1/2 (I + x.sigma) and P_0 = I - P_1 are both positive,
so the cells of a state are a distribution.  They are the cells of its Hermitian
part and check no state invariant of their own: a cell below 0 sends the state to
``as_density_matrix``, the one positivity cut, and the sum is the trace, which
``CheckedState`` bounds.  The four cell counts of n shots
are one multinomial draw, so a run costs the same at any shot count.  The
counts yield the three sample means <st>, <s>, <t>, from which the
covariance is estimated with the standard n/(n-1) sample-covariance
correction (this keeps the estimator exactly unbiased).

Two standard errors serve two purposes.  The reported ``standard_error`` is
the plug-in delta-method estimate, the spread of the covariance estimate.
The zero/non-zero call is Pearson's chi-squared test of independence on the
2x2 table: it divides |covariance| by the standard error under the null
hypothesis of zero covariance, sqrt(m_x(1-m_x) m_y(1-m_y)/n) with the same
n/(n-1) factor, which gives z = sqrt(n)|phi| (z^2 is Pearson's statistic).
The null standard error depends only on the marginals, so it cannot
collapse when a cell count comes out 0; z is 0 wherever it is 0 (a marginal
of 0 or 1), and the call Zero.

All randomness flows through ``np.random.default_rng(seed)`` (numpy's PCG64);
the counts are drawn by ``Generator.multinomial`` over the four cell
probabilities in the fixed order (1,1), (1,0), (0,1), (0,0).  Identical
inputs give bit-identical records.

``joint_outcome_probabilities`` and ``sample_joint`` take stacks of states
and probes, which broadcast.  The probabilities of a whole stack are two
small products of each state's 16 Pauli traces with the probes' Pauli
coefficients.  One seed is one stream: row i of the stack, in C order, is the
(i + 1)-th draw of ``default_rng(seed)``, all rows in one ``multinomial``
call, which gives the bits of drawing them one after another; one call of
``_statistics``, the one copy of the statistics, computes them on the whole
count array.  One state is the stack of one row, the first draw at ``seed``;
the pinned one-state records in tests/test_shotsim.py would fail if numpy
ever changed its seeding.  The statistical protocol takes its three probes'
cell probabilities in one call, makes one ``default_rng(seed)`` per run and
draws probe i as its (i + 1)-th draw, only when it reads it (``_draw``,
``_statistics`` on one row): the bits of row i of ``sample_joint`` on the
run's probe stack.  It reads only the covariance and z, so only
``sample_joint`` computes the standard error and the decision strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from bicorr.correlation import ObservablePair, _checked_pair
from bicorr.detect import DEFAULT_XS, DEFAULT_Y, ProtocolTrace, Verdict, binary_protocol
from bicorr.linalg import NORM_TOL, item_or_array
from bicorr.qstate import CheckedState, as_density_matrix
from bicorr.qstate import _integers, _pauli_traces, _reals, _require

DECISION_ZERO = "Zero"
DECISION_NONZERO = "NonZero"

# (s, t) outcome labels in sampling order; s, t = 1 is the projector
# eigenvalue-1 outcome of Q and R respectively.
CELL_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))


class NonUnitBloch(ValueError):
    """Shot sampling needs unit Bloch vectors (projector observables)."""


@dataclass(frozen=True)
class ShotConfig:
    """Sampling parameters: shots per correlation, RNG seed, decision threshold.

    shots is at most 2**53, so every count and every marginal below 1 is exact enough in a float:
    above it, counts (0, n - 1, 1, 0) read a marginal of exactly 1, and z 0 for phi = -1.
    """

    shots: int = 100_000
    seed: int = 0
    z_threshold: float = 5.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shots", _integers(self.shots, "shots", 100, 2**53 + 1))
        object.__setattr__(self, "seed", _integers(self.seed, "seed", 0, 2**64))
        z = real = self.z_threshold
        if type(z) is not float:  # a plain float needs no walk
            try:
                real = _reals(z, "z_threshold")
                real = float(real) if real.ndim == 0 else math.nan  # a stack is no threshold
            except ValueError:  # a bool, "5", None: no real number
                real = math.nan
        if not 0 < real < math.inf:
            raise ValueError(f"z_threshold must be a finite positive number, got {z!r}")
        object.__setattr__(self, "z_threshold", real)


@dataclass(frozen=True)
class ShotRecord:
    """Sample means, covariance estimate with its standard error, and the binary call.

    standard_error is the delta-method spread of covariance_estimate;
    z_score is |covariance_estimate| over the null-hypothesis standard error,
    and decision is NonZero exactly when z_score exceeds the z threshold.
    For a stack, every field but shots_used is an array shaped like the stack.  Two records are
    equal when every field holds the same values, so the comparison is one bool for a stack too.
    """

    estimate_xy: float
    estimate_x: float
    estimate_y: float
    covariance_estimate: float
    standard_error: float
    z_score: float
    decision: str
    shots_used: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, ShotRecord):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, field.name), getattr(other, field.name))
            for field in fields(self)
        )


def _unit(pair: ObservablePair) -> ObservablePair:
    """pair, each x and y of unit length; NonUnitBloch names the first that is not."""
    for name in ("x", "y"):
        deviation = np.abs(np.hypot.reduce(getattr(pair, name), axis=-1) - 1.0)
        message = name + "{at} must be a unit vector, its norm is off 1 by {worst!r}"
        _require(deviation, NORM_TOL, NonUnitBloch, message)
    return pair


def _coefficients(v: np.ndarray) -> np.ndarray:
    """Rows 1/2 (1, v) and 1/2 (1, -v) on the last two axes, (..., 2, 4): the Pauli coefficients
    of P_1 = 1/2 (I + v.sigma) and P_0 = I - P_1.  Each entry is one exact product or sum with 0."""
    return (v @ _SIGNED_HALVES + _HALF_IDENTITY).reshape(v.shape[:-1] + (2, 4))


_SIGNED_HALVES = np.kron([0.5, -0.5], np.eye(3, 4, 1))  # v to (0, v/2, 0, -v/2)
_HALF_IDENTITY = np.kron([0.5, 0.5], [1.0, 0.0, 0.0, 0.0])


def joint_outcome_probabilities(rho: np.ndarray, pair: ObservablePair) -> np.ndarray:
    """Cell probabilities Tr(rho P_s (x) P_t) in CELL_ORDER, on the last axis; stacks broadcast.
    x and y may lie anywhere in the Bloch ball, as in ``outcome_table``.

    With T the 4x4 real Pauli traces of rho, cell (s, t) is 1/4 (1, +-x) T (1, +-y)^T, the sign +
    for s = 1 and t = 1: two real products, whose (..., 2, 2) rows s = 1, 0 and columns t = 1, 0
    lie in CELL_ORDER as they are.  They are the cells of the Hermitian part, and sum to its
    trace, which ``CheckedState`` has bounded.  A cell below 0 runs ``as_density_matrix`` on the
    state, the one positivity cut; past it, the cells are clipped at 0.  They are then divided by
    their sum.
    """
    state = CheckedState.of(rho)
    traces = _pauli_traces(state.matrix).reshape(state.matrix.shape)
    cells = _coefficients(pair.x) @ traces @ _coefficients(pair.y).swapaxes(-1, -2)
    probs = cells.reshape(cells.shape[:-2] + (4,))
    if probs.min(initial=0.0) < 0.0:
        as_density_matrix(state)
        probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def _statistics(counts: np.ndarray, n: float) -> tuple:
    """estimate_xy, estimate_x, estimate_y, covariance_estimate and z_score of counts in
    CELL_ORDER at n shots a row: numpy floats for one row (4,), arrays for rows (k, 4).

    Every step is elementwise, so a row has the same bits alone or in a stack.  z is 0 wherever
    the null SE is 0, by a mask: a marginal of 0 or 1 gives 0/0, and above 2**53 shots, which
    ``ShotConfig`` refuses, a marginal can round to 1 while the covariance does not round to 0
    (counts (0, 2**60 - 40, 40, 0) give -3.47e-17).
    """
    n11, n10, n01, _ = counts.T
    m_xy = n11 / n
    m_x = (n11 + n10) / n
    m_y = (n11 + n01) / n
    covariance = (m_xy - m_x * m_y) * n / (n - 1.0)
    null_se = np.sqrt(m_x * (1.0 - m_x) * m_y * (1.0 - m_y) / n) * n / (n - 1.0)
    z_score = np.abs(covariance) * (null_se > 0.0) / (null_se + (null_se == 0.0))
    return m_xy, m_x, m_y, covariance, z_score


def _draw(probs: np.ndarray, cfg: ShotConfig, rng: np.random.Generator) -> tuple:
    """The ``_statistics`` of one row of cell probabilities, its counts the next draw of rng."""
    counts = rng.multinomial(cfg.shots, probs).astype(float)
    return _statistics(counts, float(cfg.shots))


def sample_joint(rho: np.ndarray, pair: ObservablePair, cfg: ShotConfig) -> ShotRecord:
    """Draw the cell counts of cfg.shots joint outcomes and test the covariance.

    The counts are one multinomial draw.  The reported standard error
    linearizes cov = <st> - <s><t> around the sample means: with
    h = st - m_y s - m_x t per shot, SE^2 = Var(h) / n.  The call instead
    uses the null-hypothesis standard error, so z_score = sqrt(n)|phi| is
    Pearson's test of independence, and it is 0 wherever that SE is 0.

    x and y must be unit vectors: NonUnitBloch names the first that is not, before any state
    error.  States and probes broadcast as in ``joint_outcome_probabilities``; row i of the
    stack, in C order, is the (i + 1)-th draw of ``default_rng(cfg.seed)``, and one state is the
    stack of one row, the first draw.  One state gives a record of Python floats (decision a
    str), a stack a record of arrays shaped like it (decision a str array), with shots_used the
    shots per row.
    """
    probs = joint_outcome_probabilities(rho, _unit(pair))
    rows = probs.reshape(-1, 4)
    counts = np.random.default_rng(cfg.seed).multinomial(cfg.shots, rows).astype(float)
    n = float(cfg.shots)
    m_xy, m_x, m_y, covariance, z_score = _statistics(counts, n)
    h = np.stack([1.0 - m_y - m_x, -m_y, -m_x, np.zeros_like(m_x)], axis=-1)
    h_mean = np.vecdot(counts, h) / n  # the bits of the 4-term counts @ h
    standard_error = np.sqrt(np.vecdot(counts, (h - h_mean[:, None]) ** 2) / (n - 1.0) / n)
    decision = np.where(z_score > cfg.z_threshold, DECISION_NONZERO, DECISION_ZERO)
    columns = m_xy, m_x, m_y, covariance, standard_error, z_score, decision
    shape = probs.shape[:-1]
    return ShotRecord(*(item_or_array(c.reshape(shape)) for c in columns), shots_used=cfg.shots)


def statistical_binary_protocol(
    rho: np.ndarray,
    y: np.ndarray = DEFAULT_Y,
    xs: np.ndarray = DEFAULT_XS,
    cfg: ShotConfig = ShotConfig(),
    assume_pure: bool = False,
) -> tuple[Verdict, ProtocolTrace]:
    """Three-probe protocol with finite-shot decisions instead of exact zeros.

    Semantics follow ``binary_protocol``, whose verdict and trace it returns, but every
    zero/non-zero call is a statistical one at cfg's shot budget and z threshold, so a verdict is
    held with confidence, not proved.  Every probe's cells are computed, and checked, before the
    first draw; probe i is drawn only when read, on its direction, as the (i + 1)-th draw of the
    run's one ``default_rng(cfg.seed)``.
    """
    rho = CheckedState.of(rho)

    def shot_oracle(xs: np.ndarray, y: np.ndarray):
        probs = joint_outcome_probabilities(rho, _checked_pair(xs, y))  # every probe
        rng = np.random.default_rng(cfg.seed)
        for row in probs:
            *_, covariance, z_score = _draw(row, cfg, rng)
            yield covariance, not z_score > cfg.z_threshold

    return binary_protocol(rho, y, xs, shot_oracle, assume_pure)
