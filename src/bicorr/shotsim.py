"""Finite-shot simulation of joint projective measurements.

Unit Bloch vectors make Q and R projectors, and since X = Q (x) I and
Y = I (x) R act on different factors they commute: a simultaneous measurement
samples the four-cell product eigenbasis.  The four cell counts of n shots
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
coefficients; row i of the stack, in C order, then draws its counts from the
stream of ``default_rng((seed + i) mod 2**64)``, and one call of
``_statistics``, the one copy of the statistics, computes them on the whole
count array.  The stack's seeds are seeded at once (``streams.seed_words``),
and each row draws from a fresh generator on its seed's ``default_rng(seed)``
stream, bit for bit; the pinned one-state records in tests/test_shotsim.py
would fail if numpy ever changed its seeding.  One state is the stack of one
row, at ``seed``.  The statistical protocol takes its three probes' cell
probabilities in one call and draws probe i, at (seed + i) mod 2**64, only
when it reads it (``_draw``, ``_statistics`` on one row): the bits of row i
of ``sample_joint``.  It reads only the covariance and z, so only
``sample_joint`` computes the standard error and the decision strings.  It
passes the unit directions that its probe check has made, which are not
checked again; any other pair is checked for unit length (``NonUnitBloch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from bicorr.correlation import ObservablePair, _checked_pair
from bicorr.detect import (
    BINARY_PROTOCOL,
    DEFAULT_XS,
    DEFAULT_Y,
    ProtocolTrace,
    Verdict,
    binary_protocol,
)
from bicorr.linalg import IMAG_TOL, NORM_TOL, item_or_array
from bicorr.qstate import CheckedState, InvalidState, _integers, _pauli_traces, _reals, _require
from bicorr.streams import generators, seed_words

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
    """Sample means, covariance estimate with uncertainty, and the binary call.

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


class _UnitPair(ObservablePair):
    """Probe directions that ``_check_probes`` has made unit, so ``_unit`` lets them through."""


def _unit(pair: ObservablePair) -> ObservablePair:
    """pair, each x and y of unit length; NonUnitBloch names the first that is not."""
    if not isinstance(pair, _UnitPair):
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

    With T the 4x4 Pauli traces of rho, cell (s, t) is 1/4 (1, +-x) T (1, +-y)^T, the sign + for
    s = 1 and t = 1: two products, whose (..., 2, 2) rows s = 1, 0 and columns t = 1, 0 lie in
    CELL_ORDER as they are.  The checks, in order: imaginary residue, negative cell, sum (before
    clipping); the first failing one is raised with its stack index, each ``_require`` run only
    when its bound fails.  A cell in [-IMAG_TOL, 0) is clipped at 0; the cells are then normalized.
    """
    pair = _unit(pair)
    matrix = CheckedState.of(rho).matrix
    traces = _pauli_traces(matrix).reshape(matrix.shape)
    cells = _coefficients(pair.x) @ traces @ _coefficients(pair.y).swapaxes(-1, -2)
    cells = cells.reshape(cells.shape[:-2] + (4,))
    residue = np.abs(cells.imag)
    if not residue.max(initial=0.0) <= IMAG_TOL:  # nan fails every bound
        message = "cell probability{at} has imaginary residue {worst:.3e}"
        _require(residue, IMAG_TOL, InvalidState, message, 1)
    probs = cells.real
    total = probs.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0)
    if not (probs.min(initial=0.0) >= 0.0 and off.max(initial=0.0) <= NORM_TOL):
        message = "cell probabilities{at} are not a distribution: one is -{worst:.3e}"
        _require(-probs, IMAG_TOL, InvalidState, message, 1)
        message = "cell probabilities{at} are not a distribution: their sum is off 1 by {worst:.3e}"
        _require(off[..., 0], NORM_TOL, InvalidState, message)
        probs = np.maximum(probs, 0.0)
        total = probs.sum(axis=-1, keepdims=True)
    return probs / total


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


def _draw(probs: np.ndarray, cfg: ShotConfig, seed: int) -> tuple:
    """The ``_statistics`` of one row of cell probabilities, its counts drawn at seed."""
    counts = np.random.default_rng(seed).multinomial(cfg.shots, probs).astype(float)
    return _statistics(counts, float(cfg.shots))


def sample_joint(rho: np.ndarray, pair: ObservablePair, cfg: ShotConfig) -> ShotRecord:
    """Draw the cell counts of cfg.shots joint outcomes and test the covariance.

    The counts are one multinomial draw.  The reported standard error
    linearizes cov = <st> - <s><t> around the sample means: with
    h = st - m_y s - m_x t per shot, SE^2 = Var(h) / n.  The call instead
    uses the null-hypothesis standard error, so z_score = sqrt(n)|phi| is
    Pearson's test of independence, and it is 0 wherever that SE is 0.

    States and probes broadcast as in ``joint_outcome_probabilities``; row i of the stack, in C
    order, draws at seed (cfg.seed + i) mod 2**64, and one state is the stack of one row, at
    cfg.seed.  One state gives a record of Python floats (decision a str), a stack a record of
    arrays shaped like it (decision a str array), with shots_used the shots per row.
    """
    probs = joint_outcome_probabilities(rho, pair)
    rows = probs.reshape(-1, 4)
    counts = np.empty(rows.shape)
    seeds = np.uint64(cfg.seed) + np.arange(len(rows), dtype=np.uint64)  # wraps at 2**64
    for row, p, rng in zip(counts, rows, generators(seed_words(seeds))):
        row[:] = rng.multinomial(cfg.shots, p)
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

    Semantics follow ``binary_protocol``, but every zero/non-zero call is a statistical one, so
    verdicts carry confidence, not certainty; the shot budget and threshold are recorded in the
    verdict detail.  Every probe's cells are computed, and checked, before the first draw; probe i
    is drawn only when read, on its direction, at seed (seed + i) mod 2**64.
    """
    rho = CheckedState.of(rho)

    def shot_oracle(xs: np.ndarray, y: np.ndarray):
        probs = joint_outcome_probabilities(rho, _checked_pair(xs, y, _UnitPair))  # every probe
        for i, row in enumerate(probs):
            *_, covariance, z_score = _draw(row, cfg, (cfg.seed + i) % 2**64)
            yield covariance, not z_score > cfg.z_threshold

    verdict, trace = binary_protocol(rho, y, xs, shot_oracle, assume_pure)
    detail = (
        f"{verdict.detail}; statistical decision at {cfg.shots} shots per probe, "
        f"z threshold {cfg.z_threshold:g} (confidence, not certainty)"
    )
    return Verdict(verdict.label, BINARY_PROTOCOL, detail), trace
