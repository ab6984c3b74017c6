"""Correlation-based entanglement analysis for two-qubit states.

The package computes covariances of local observables from density matrices,
extracts the 3x3 correlation matrix of a state, classifies pure states as
separable or entangled through the rank of that matrix, runs the three-probe
zero/non-zero correlation protocol, and simulates the same decisions from
finite projective-measurement statistics.
"""

from bicorr.correlation import (
    CorrMatrix,
    ObservablePair,
    correlation_matrix,
    covariance_direct,
    covariance_via_c,
)
from bicorr.detect import (
    Verdict,
    ProtocolTrace,
    binary_protocol,
    classify_pure_by_rank,
    find_zero_correlation_pair,
    ppt_is_separable,
    schmidt_rank,
)
from bicorr.qstate import (
    BlochForm,
    bloch_assemble,
    bloch_decompose,
    density_from_pure,
    observable_from_bloch,
)
from bicorr.shotsim import ShotConfig, ShotRecord, sample_joint, statistical_binary_protocol
from bicorr.states import bell_state, chen_state, haar_random_pure, werner

__version__ = "0.1.0"

__all__ = [
    "BlochForm",
    "CorrMatrix",
    "ObservablePair",
    "ProtocolTrace",
    "ShotConfig",
    "ShotRecord",
    "Verdict",
    "bell_state",
    "binary_protocol",
    "bloch_assemble",
    "bloch_decompose",
    "chen_state",
    "classify_pure_by_rank",
    "correlation_matrix",
    "covariance_direct",
    "covariance_via_c",
    "density_from_pure",
    "find_zero_correlation_pair",
    "haar_random_pure",
    "observable_from_bloch",
    "ppt_is_separable",
    "sample_joint",
    "schmidt_rank",
    "statistical_binary_protocol",
    "werner",
]
