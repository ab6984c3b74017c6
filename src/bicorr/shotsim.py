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
collapse when a cell count comes out 0; a marginal of 0 or 1 makes the
covariance exactly 0 and the call Zero.

All randomness flows through ``np.random.default_rng(seed)`` (numpy's PCG64);
the counts are drawn by ``Generator.multinomial`` over the four cell
probabilities in the fixed order (1,1), (1,0), (0,1), (0,0).  Identical
inputs give bit-identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from bicorr.linalg import IMAG_TOL, NORM_TOL
from bicorr.qstate import CheckedState, InvalidState, _require, outcome_table

DECISION_ZERO = "Zero"
DECISION_NONZERO = "NonZero"

# (s, t) outcome labels in sampling order; s, t = 1 is the projector
# eigenvalue-1 outcome of Q and R respectively.
CELL_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))


class NonUnitBloch(ValueError):
    """Shot sampling needs unit Bloch vectors (projector observables)."""


@dataclass(frozen=True)
class ShotConfig:
    """Sampling parameters: shots per correlation, RNG seed, decision threshold."""

    shots: int = 100_000
    seed: int = 0
    z_threshold: float = 5.0

    def __post_init__(self) -> None:
        if not isinstance(self.shots, (int, np.integer)):
            raise ValueError(f"shots must be an integer, got {self.shots!r}")
        if not 100 <= self.shots < 2**63:
            raise ValueError("shots must be at least 100 and below 2**63")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0 < self.z_threshold < math.inf:
            raise ValueError("z_threshold must be finite and positive")


@dataclass(frozen=True)
class ShotRecord:
    """Sample means, covariance estimate with uncertainty, and the binary call.

    standard_error is the delta-method spread of covariance_estimate;
    z_score is |covariance_estimate| over the null-hypothesis standard error,
    and decision is NonZero exactly when z_score exceeds the z threshold.
    """

    estimate_xy: float
    estimate_x: float
    estimate_y: float
    covariance_estimate: float
    standard_error: float
    z_score: float
    decision: str
    shots_used: int


def _unit(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NonUnitBloch(f"{name} must be a unit vector, got norm {norm!r}")
    return vec


def joint_outcome_probabilities(rho: np.ndarray, pair: ObservablePair) -> np.ndarray:
    """Cell probabilities Tr(rho P_s (x) P_t) in CELL_ORDER."""
    table = outcome_table(rho, _unit(pair.x, "x"), _unit(pair.y, "y"))
    cells = table[::-1, ::-1].ravel()  # T11, T10, T01, T00
    message = "cell probability has imaginary residue {worst:.3e}"
    _require(np.abs(cells.imag), IMAG_TOL, InvalidState, message, 1)
    probs = cells.real
    message = "cell probabilities are not a distribution: one is -{worst:.3e}"
    _require(-probs, IMAG_TOL, InvalidState, message, 1)
    message = "cell probabilities are not a distribution: their sum is off 1 by {worst:.3e}"
    _require(np.abs(probs.sum() - 1.0), NORM_TOL, InvalidState, message)
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_joint(rho: np.ndarray, pair: ObservablePair, cfg: ShotConfig) -> ShotRecord:
    """Draw the cell counts of cfg.shots joint outcomes and test the covariance.

    The counts are one multinomial draw.  The reported standard error
    linearizes cov = <st> - <s><t> around the sample means: with
    h = st - m_y s - m_x t per shot, SE^2 = Var(h) / n.  The call instead
    uses the null-hypothesis standard error, so z_score = sqrt(n)|phi| is
    Pearson's test of independence and is 0 when a marginal is 0 or 1.
    """
    probs = joint_outcome_probabilities(rho, pair)
    rng = np.random.default_rng(cfg.seed)
    counts = rng.multinomial(cfg.shots, probs).astype(float)

    n = float(cfg.shots)
    n11, n10, n01, _ = counts
    m_xy = n11 / n
    m_x = (n11 + n10) / n
    m_y = (n11 + n01) / n
    covariance = (m_xy - m_x * m_y) * n / (n - 1.0)

    h = np.array([1.0 - m_y - m_x, -m_y, -m_x, 0.0])
    h_mean = float(counts @ h) / n
    h_var = float(counts @ (h - h_mean) ** 2) / (n - 1.0)
    standard_error = math.sqrt(h_var / n)

    null_se = math.sqrt(m_x * (1.0 - m_x) * m_y * (1.0 - m_y) / n) * n / (n - 1.0)
    z_score = abs(covariance) / null_se if null_se > 0.0 else 0.0
    return ShotRecord(
        estimate_xy=m_xy,
        estimate_x=m_x,
        estimate_y=m_y,
        covariance_estimate=covariance,
        standard_error=standard_error,
        z_score=z_score,
        decision=DECISION_NONZERO if z_score > cfg.z_threshold else DECISION_ZERO,
        shots_used=cfg.shots,
    )


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
    verdict detail.  Probe i is sampled when read, on its direction, at seed (seed + i) mod 2**64.
    """
    rho = CheckedState.of(rho)

    def shot_oracle(xs: np.ndarray, y: np.ndarray):
        for i, x in enumerate(xs):
            pair = _checked_pair(x, y)
            record = sample_joint(rho, pair, replace(cfg, seed=(cfg.seed + i) % 2**64))
            yield record.covariance_estimate, record.decision == DECISION_ZERO

    verdict, trace = binary_protocol(rho, y, xs, shot_oracle, assume_pure)
    detail = (
        f"{verdict.detail}; statistical decision at {cfg.shots} shots per probe, "
        f"z threshold {cfg.z_threshold:g} (confidence, not certainty)"
    )
    return Verdict(verdict.label, BINARY_PROTOCOL, detail), trace
