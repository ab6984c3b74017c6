"""Fixture states, seeded random-state generators, and the state-file format.

All generators are pure functions of their integer seed (numpy PCG64 via
``np.random.default_rng``), so every draw is bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from bicorr.qstate import CheckedState, _observable, as_density_matrix, density_from_pure

_BELL_AMPLITUDES = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2.0),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2.0),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0),
}


class XiOutOfRange(ValueError):
    """Werner mixing parameter must lie in [0, 1]."""


class ParseError(ValueError):
    """State file is structurally malformed."""


def bell_state(which: str) -> np.ndarray:
    """One of the four Bell states; `which` is 'phi+', 'phi-', 'psi+' or 'psi-'.

    'psi-' is the singlet (|a1 b2> - |a2 b1>) / sqrt(2).
    """
    key = which.lower()
    if key not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell state {which!r}; choose from {sorted(_BELL_AMPLITUDES)}")
    return _BELL_AMPLITUDES[key].copy()


def chen_state() -> np.ndarray:
    """The pure entangled state (|a1 b1> + |a1 b2> + |a2 b2>) / sqrt(3)."""
    return np.array([1, 1, 0, 1], dtype=complex) / np.sqrt(3.0)


def werner(xi: float) -> np.ndarray:
    """Werner density matrix (1 - xi)/4 I + xi |psi-><psi-| for xi in [0, 1].

    Separable exactly for xi <= 1/3; reduces to the singlet projector at
    xi = 1 and to the maximally mixed state at xi = 0.  The covariance of any
    pair is -(xi/4) x.y and the correlation matrix is -xi times the identity,
    whether the state is separable or entangled: zero correlations coexist
    with both answers, so the protocol cannot decide mixed states.
    """
    xi = float(xi)
    if not 0.0 <= xi <= 1.0:
        raise XiOutOfRange(f"xi = {xi!r} outside [0, 1]")
    return 0.25 * np.array(
        [
            [1 - xi, 0, 0, 0],
            [0, 1 + xi, -2 * xi, 0],
            [0, -2 * xi, 1 + xi, 0],
            [0, 0, 0, 1 - xi],
        ],
        dtype=complex,
    )


def _random_unit_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def haar_random_pure(seed: int) -> np.ndarray:
    """Haar-random two-qubit pure state: normalized complex Gaussian amplitudes."""
    return _random_unit_complex(np.random.default_rng(seed), 4)


def random_product_pure(seed: int) -> np.ndarray:
    """Product of two independent Haar-random single-qubit pure states."""
    rng = np.random.default_rng(seed)
    u, v = _random_unit_complex(rng, 2), _random_unit_complex(rng, 2)
    return (u[:, None] * v).reshape(4)


def _random_qubits_mixed(rng: np.random.Generator, n: int) -> np.ndarray:
    """n single-qubit states, each with a Bloch vector uniform in the unit ball."""
    blochs = []
    for _ in range(n):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        blochs.append(direction * rng.random() ** (1.0 / 3.0))
    return _observable(np.array(blochs))


def _simplex_weights(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.exponential(1.0, size=k)
    return w / w.sum()


def random_separable_mixed(seed: int, k: int = 4) -> np.ndarray:
    """Convex mixture of k products of random single-qubit states.

    Separable by construction.  The single-qubit factors are drawn with Bloch
    vectors uniform in the unit ball, so they cover the full (generally mixed)
    qubit state space; weights come from normalized exponential draws, i.e.
    uniform on the simplex.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = np.random.default_rng(seed)
    weights = _simplex_weights(rng, k)
    qubits = _random_qubits_mixed(rng, 2 * k)  # A and B factor of each term, in turn
    a, b = qubits[0::2, :, None, :, None], qubits[1::2, None, :, None, :]
    return (weights[:, None, None] * (a * b).reshape(k, 4, 4)).sum(axis=0)


def random_mixed(seed: int, k: int = 4) -> np.ndarray:
    """Convex mixture of k Haar-random pure states (generally entangled)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = np.random.default_rng(seed)
    weights = _simplex_weights(rng, k)
    psi = np.array([_random_unit_complex(rng, 4) for _ in range(k)])
    return (weights[:, None, None] * (psi[:, :, None] * psi[:, None, :].conj())).sum(axis=0)


def random_density(seed: int) -> np.ndarray:
    """Random state for property loops: seed % 3 picks mixed, separable mixed or pure."""
    kind = seed % 3
    if kind == 0:
        return random_mixed(seed, 2 + seed % 4)
    if kind == 1:
        return random_separable_mixed(seed, 1 + seed % 5)
    return density_from_pure(haar_random_pure(seed))


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Parsed state file: its kind, pure amplitudes, and the checked density matrix of either."""

    kind: str
    label: str | None = None
    amplitudes: np.ndarray | None = None
    matrix: CheckedState | None = None


def pure_spec(psi: np.ndarray, label: str | None = None) -> StateSpec:
    rho = CheckedState(density_from_pure(psi))  # validates psi
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return StateSpec(kind="pure", label=label, amplitudes=psi, matrix=rho)


def mixed_spec(rho: np.ndarray, label: str | None = None) -> StateSpec:
    return StateSpec(kind="mixed", label=label, matrix=as_density_matrix(rho))


def _split_pairs(raw, expected: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} entries must be [re, im] number pairs") from exc
    if arr.shape != (expected, 2):
        raise ParseError(f"{what} must be {expected} [re, im] pairs, got shape {arr.shape}")
    return arr[:, 0] + 1j * arr[:, 1]


def loads_state(text: str) -> StateSpec:
    """Parse the JSON state document; validates the state it describes."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("state document must be a JSON object")
    kind = doc.get("kind")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label must be a string")
    if kind == "pure":
        if "amplitudes" not in doc:
            raise ParseError("pure state document needs an 'amplitudes' field")
        psi = _split_pairs(doc["amplitudes"], 4, "amplitudes")
        return pure_spec(psi, label)
    if kind == "mixed":
        if "matrix" not in doc:
            raise ParseError("mixed state document needs a 'matrix' field")
        rows = doc["matrix"]
        if not isinstance(rows, list) or len(rows) != 4:
            raise ParseError("matrix must have 4 rows")
        rho = np.stack([_split_pairs(row, 4, "matrix row") for row in rows])
        return mixed_spec(rho, label)
    raise ParseError(f"kind must be 'pure' or 'mixed', got {kind!r}")


def state_doc(spec: StateSpec) -> dict:
    """The JSON state document of a state, as a dict of plain Python values."""
    doc: dict = {"kind": spec.kind}
    if spec.label is not None:
        doc["label"] = spec.label
    if spec.kind == "pure":
        doc["amplitudes"] = [[float(z.real), float(z.imag)] for z in spec.amplitudes]
    else:
        doc["matrix"] = [
            [[float(z.real), float(z.imag)] for z in row] for row in spec.matrix.matrix
        ]
    return doc


def dumps_state(spec: StateSpec) -> str:
    """Serialize a state to the JSON document format (full float precision)."""
    return json.dumps(state_doc(spec), indent=2)


def load_state_file(path) -> StateSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_state(fh.read())


def save_state_file(path, spec: StateSpec) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_state(spec))
        fh.write("\n")
