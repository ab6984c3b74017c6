"""Correlation-based entanglement analysis for two-qubit states.

The package computes covariances of local observables from density matrices,
extracts the 3x3 correlation matrix of a state, classifies pure states as
separable or entangled through the rank of that matrix, runs the three-probe
zero/non-zero correlation protocol (one run, or a stack of runs), and
simulates the same decisions from finite projective-measurement statistics.

The four shot names (``ShotConfig``, ``ShotRecord``, ``sample_joint``,
``statistical_binary_protocol``) import ``bicorr.shotsim`` on first access, so
a program that never samples never loads the simulator.
"""

from bicorr.correlation import (
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
    exact_protocol,
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
from bicorr.states import bell_state, chen_state, haar_random_pure, werner

__version__ = "0.1.0"

__all__ = [
    "BlochForm",
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
    "exact_protocol",
    "find_zero_correlation_pair",
    "haar_random_pure",
    "observable_from_bloch",
    "ppt_is_separable",
    "sample_joint",
    "schmidt_rank",
    "statistical_binary_protocol",
    "werner",
]

_SHOT_NAMES = frozenset({"ShotConfig", "ShotRecord", "sample_joint", "statistical_binary_protocol"})


def __getattr__(name: str):
    if name in _SHOT_NAMES:
        from bicorr import shotsim

        return getattr(shotsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
