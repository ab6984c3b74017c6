"""Finite-shot simulation of joint projective measurements.

Unit Bloch vectors make Q and R projectors, and since X = Q (x) I and
Y = I (x) R act on different factors they commute: a simultaneous measurement
samples the four-cell product eigenbasis.  One shared outcome stream yields
the three sample means <st>, <s>, <t> at once, from which the covariance is
estimated with the standard n/(n-1) sample-covariance correction (this keeps
the estimator exactly unbiased).  The standard error is the plug-in
delta-method estimate, and the zero/non-zero call compares |covariance| with
z_threshold standard errors.

All randomness flows through ``np.random.default_rng(seed)`` (numpy's PCG64);
outcomes are drawn by inverse CDF over the four cell probabilities in the
fixed order (1,1), (1,0), (0,1), (0,0).  Identical inputs give bit-identical
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from bicorr.correlation import ObservablePair
from bicorr.detect import (
    BINARY_PROTOCOL,
    DEFAULT_XS,
    DEFAULT_Y,
    ProtocolTrace,
    Verdict,
    binary_protocol,
)
from bicorr.linalg import IMAG_TOL, NORM_TOL
from bicorr.qstate import InvalidState, outcome_table

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
        if self.shots < 100:
            raise ValueError("shots must be at least 100")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not self.z_threshold > 0:
            raise ValueError("z_threshold must be positive")


@dataclass(frozen=True)
class ShotRecord:
    """Sample means, covariance estimate with uncertainty, and the binary call."""

    estimate_xy: float
    estimate_x: float
    estimate_y: float
    covariance_estimate: float
    standard_error: float
    decision: str
    shots_used: int


def _unit(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if abs(float(np.linalg.norm(vec)) - 1.0) > NORM_TOL:
        raise NonUnitBloch(f"{name} must be a unit vector, got norm {np.linalg.norm(vec)!r}")
    return vec


def joint_outcome_probabilities(rho: np.ndarray, pair: ObservablePair) -> np.ndarray:
    """Cell probabilities Tr(rho P_s (x) P_t) in CELL_ORDER."""
    table = outcome_table(rho, _unit(pair.x, "x"), _unit(pair.y, "y"))
    cells = table[::-1, ::-1].ravel()  # T11, T10, T01, T00
    residues = cells.imag[np.abs(cells.imag) > IMAG_TOL]
    if residues.size:
        raise InvalidState(f"cell probability has imaginary residue {residues[0]:.3e}")
    probs = cells.real
    if probs.min() < -IMAG_TOL or abs(probs.sum() - 1.0) > NORM_TOL:
        raise InvalidState(f"cell probabilities are not a distribution: {probs.tolist()}")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def sample_joint(rho: np.ndarray, pair: ObservablePair, cfg: ShotConfig) -> ShotRecord:
    """Draw cfg.shots joint outcomes and estimate the covariance of the pair.

    The standard error linearizes cov = <st> - <s><t> around the sample means:
    with h = st - m_y s - m_x t per shot, SE^2 = Var(h) / n.
    """
    probs = joint_outcome_probabilities(rho, pair)
    rng = np.random.default_rng(cfg.seed)
    edges = np.cumsum(probs)
    cells = np.searchsorted(edges, rng.random(cfg.shots), side="right")
    counts = np.bincount(np.minimum(cells, 3), minlength=4).astype(float)

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

    nonzero = abs(covariance) > cfg.z_threshold * standard_error
    return ShotRecord(
        estimate_xy=m_xy,
        estimate_x=m_x,
        estimate_y=m_y,
        covariance_estimate=covariance,
        standard_error=standard_error,
        decision=DECISION_NONZERO if nonzero else DECISION_ZERO,
        shots_used=cfg.shots,
    )


def shot_corr_oracle(rho: np.ndarray, cfg: ShotConfig):
    """Finite-shot zero/non-zero oracle for the probe protocol.

    Probe directions are normalized to unit length before sampling (the
    binary decision is scale-invariant); probe i uses (seed + i) mod 2**64 so
    the runs draw from disjoint, reproducible streams.
    """
    calls = 0

    def oracle(pair: ObservablePair) -> tuple[float, bool]:
        nonlocal calls
        x = pair.x / np.linalg.norm(pair.x)
        y = pair.y / np.linalg.norm(pair.y)
        run_cfg = replace(cfg, seed=(cfg.seed + calls) % 2**64)
        calls += 1
        record = sample_joint(rho, ObservablePair(x=x, y=y), run_cfg)
        return record.covariance_estimate, record.decision == DECISION_ZERO

    return oracle


def statistical_binary_protocol(
    rho: np.ndarray,
    y: np.ndarray = DEFAULT_Y,
    xs: np.ndarray = DEFAULT_XS,
    cfg: ShotConfig = ShotConfig(),
    assume_pure: bool = False,
) -> tuple[Verdict, ProtocolTrace]:
    """Three-probe protocol with finite-shot decisions instead of exact zeros.

    Semantics follow ``binary_protocol``, but every zero/non-zero call is a
    statistical one, so verdicts carry confidence, not certainty; the shot
    budget and threshold are recorded in the verdict detail.
    """
    verdict, trace = binary_protocol(
        rho, y=y, xs=xs, corr_oracle=shot_corr_oracle(rho, cfg), assume_pure=assume_pure
    )
    detail = (
        f"{verdict.detail}; statistical decision at {cfg.shots} shots per probe, "
        f"z threshold {cfg.z_threshold:g} (confidence, not certainty)"
    )
    return Verdict(verdict.label, BINARY_PROTOCOL, detail), trace
