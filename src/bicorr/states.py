"""Fixture states, seeded random-state generators, and the state-file format.

Every random generator takes one seed or a sequence of seeds, which gives a stack of states.
Each seed draws from its own ``np.random.default_rng(seed)`` stream (numpy PCG64) in a fixed
order, and the rest is computed on the whole stack with the bits of the one-seed computation, so
a seed's state is the same alone or in any stack, and every draw is bit-reproducible.  Each call
seeds its flat stack of seeds once (``streams.seed_words``) and hands every kind and k group its
rows of the words, from which each seed gets a fresh generator on its ``default_rng(seed)``
stream, bit for bit; the pinned seed map in tests/test_states.py would fail if numpy ever changed
its seeding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from bicorr.linalg import directions
from bicorr.qstate import (
    CheckedState,
    InvalidState,
    _integers,
    _observable,
    _reals,
    _require,
    as_density_matrix,
    density_from_pure,
    validate_pure_state,
)
from bicorr.streams import generators, seed_words

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


def werner(xi) -> np.ndarray:
    """Werner density matrix (1 - xi)/4 I + xi |psi-><psi-| for xi in [0, 1]; a stack for a stack.

    Separable exactly for xi <= 1/3; reduces to the singlet projector at
    xi = 1 and to the maximally mixed state at xi = 0.  The covariance of any
    pair is -(xi/4) x.y and the correlation matrix is -xi times the identity,
    whether the state is separable or entangled: zero correlations coexist
    with both answers, so the protocol cannot decide mixed states.
    """
    xi = _reals(xi, "xi")
    message = "xi{at} lies {worst!r} outside [0, 1]"
    _require(np.maximum(-xi, xi - 1.0), 0.0, XiOutOfRange, message)
    rho = np.zeros(xi.shape + (4, 4), dtype=complex)
    rho[..., [0, 3], [0, 3]] = (1 - xi)[..., None]
    rho[..., [1, 2], [1, 2]] = (1 + xi)[..., None]
    rho[..., [1, 2], [2, 1]] = (-2 * xi)[..., None]
    return 0.25 * rho


def _shaped(seeds: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The stack drawn for seeds.flat, shaped like seeds: one seed gives one state."""
    return stack.reshape(seeds.shape + stack.shape[1:])


def _seeded(seed) -> tuple[np.ndarray, np.ndarray]:
    """seed as an object array of non-negative Python ints, and its flat stack's ``seed_words``."""
    seeds = np.asarray(_integers(seed, "seed", 0, stack=True), dtype=object)
    return seeds, seed_words(seeds.reshape(-1))


def _normal_rows(words: np.ndarray, shape: tuple) -> np.ndarray:
    """Per row of words, an array of `shape` standard normals from that seed's own generator."""
    rows = np.empty((len(words),) + shape)
    for row, rng in zip(rows, generators(words)):
        rng.standard_normal(out=row)
    return rows


def _unit_complex(g: np.ndarray) -> np.ndarray:
    """g[..., 0, :] + i g[..., 1, :] over its norm.

    The norm is np.linalg.norm's sum of the two real dot products, taken by np.vecdot on the
    strided real and imaginary views, which gives its bits on every row (the pinned seed map in
    tests/test_states.py was taken with np.linalg.norm).
    """
    v = g[..., 0, :] + 1j * g[..., 1, :]
    return v / np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]


def _haar(words: np.ndarray) -> np.ndarray:
    return _unit_complex(_normal_rows(words, (2, 4)))


def haar_random_pure(seed) -> np.ndarray:
    """Haar-random two-qubit pure state: normalized complex Gaussian amplitudes.

    seed is one seed, or a sequence of N seeds (a list, a range, an integer array) for an
    (N, 4) stack.
    """
    seeds, words = _seeded(seed)
    return _shaped(seeds, _haar(words))


def random_product_pure(seed) -> np.ndarray:
    """Product of two independent Haar-random single-qubit pure states."""
    seeds, words = _seeded(seed)
    g = _normal_rows(words, (2, 2, 2))  # u's real and imaginary parts, then v's
    u, v = _unit_complex(g[:, 0]), _unit_complex(g[:, 1])
    return _shaped(seeds, (u[:, :, None] * v[:, None, :]).reshape(-1, 4))


def _per_k(words: np.ndarray, ks: np.ndarray, mixture) -> np.ndarray:
    """mixture(words, k) on the rows of each k, gathered into one (n, 4, 4) stack."""
    rho = np.empty((len(words), 4, 4), dtype=complex)
    for value in set(ks.tolist()):  # np.unique would page in about 0.5 MB on its first call
        rows = ks == value
        rho[rows] = mixture(words[rows], int(value))
    return rho


def _mixture_of_k(seed, k, mixture) -> np.ndarray:
    """_per_k on the seeds, k one count in [1, 2**63) or one per seed."""
    seeds, words = _seeded(seed)
    ks = np.asarray(_integers(k, "k", 1, 2**63, stack=True), dtype=np.int64)
    return _shaped(seeds, _per_k(words, np.broadcast_to(ks, seeds.shape).reshape(-1), mixture))


def _mixture(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per row, the sum of the k terms (n, k, 4, 4) with the weights (n, k) normalized to 1."""
    weights = weights / weights.sum(axis=-1, keepdims=True)
    return (weights[..., None, None] * terms).sum(axis=1)


def _separable_mixed(words: np.ndarray, k: int) -> np.ndarray:
    n = len(words)
    # Per seed: k exponential weights, then 2k qubits, each a normal direction and a radius.
    weights, normals, radii = np.empty((n, k)), np.empty((n, 2 * k, 3)), np.empty((n, 2 * k))
    for i, rng in enumerate(generators(words)):
        weights[i] = rng.exponential(1.0, size=k)
        for j in range(2 * k):
            rng.standard_normal(out=normals[i, j])
            radii[i, j] = rng.random() ** (1.0 / 3.0)  # Python's pow: numpy's can differ in bits
    blochs = directions(normals) * radii[..., None]
    qubits = _observable(blochs)  # the A and B factor of each term, in turn
    a, b = qubits[:, 0::2, :, None, :, None], qubits[:, 1::2, None, :, None, :]
    return _mixture(weights, (a * b).reshape(n, k, 4, 4))


def random_separable_mixed(seed, k=4) -> np.ndarray:
    """Convex mixture of k products of random single-qubit states.

    Separable by construction.  The single-qubit factors are drawn with Bloch
    vectors uniform in the unit ball, so they cover the full (generally mixed)
    qubit state space; weights come from normalized exponential draws, i.e.
    uniform on the simplex.  k is one count or one per seed.
    """
    return _mixture_of_k(seed, k, _separable_mixed)


def _mixed(words: np.ndarray, k: int) -> np.ndarray:
    n = len(words)
    draws = np.empty((n, 9 * k))  # per seed: k exponential weights, then k states' normals
    for row, rng in zip(draws, generators(words)):
        row[:k] = rng.exponential(1.0, size=k)
        rng.standard_normal(out=row[k:])
    psi = _unit_complex(draws[:, k:].reshape(n, k, 2, 4))
    return _mixture(draws[:, :k], psi[..., :, None] * psi[..., None, :].conj())


def random_mixed(seed, k=4) -> np.ndarray:
    """Convex mixture of k Haar-random pure states (generally entangled); k is one or per seed."""
    return _mixture_of_k(seed, k, _mixed)


def random_density(seed) -> np.ndarray:
    """Random state for property loops: seed % 3 picks mixed, separable mixed or pure."""
    seeds, words = _seeded(seed)
    flat = seeds.reshape(-1)
    kind = (flat % 3).astype(int)
    rho = np.empty((flat.size, 4, 4), dtype=complex)
    for which, draw in enumerate((
        lambda w, s: _per_k(w, 2 + s % 4, _mixed),
        lambda w, s: _per_k(w, 1 + s % 5, _separable_mixed),
        lambda w, s: density_from_pure(_haar(w)),
    )):
        rows = kind == which
        rho[rows] = draw(words[rows], flat[rows])
    return _shaped(seeds, rho)


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Parsed state file, one state: its kind, pure amplitudes, and its checked density matrix."""

    kind: str
    label: str | None = None
    amplitudes: np.ndarray | None = None
    matrix: CheckedState | None = None


def pure_spec(psi: np.ndarray, label: str | None = None) -> StateSpec:
    psi = validate_pure_state(psi)
    if psi.ndim > 1:
        raise InvalidState(f"a state spec holds one state, got a stack of shape {psi.shape}")
    rho = CheckedState(psi[:, None] * psi.conj())  # density_from_pure's, psi checked once
    return StateSpec(kind="pure", label=label, amplitudes=psi, matrix=rho)


def mixed_spec(rho: np.ndarray, label: str | None = None) -> StateSpec:
    rho = as_density_matrix(rho)
    if rho.matrix.ndim > 2:
        raise InvalidState(f"a state spec holds one state, got a stack of shape {rho.matrix.shape}")
    return StateSpec(kind="mixed", label=label, matrix=rho)


def _split_pairs(raw, shape: tuple, layout: str) -> np.ndarray:
    """raw, an array of `shape` of [re, im] pairs of floats, as complex; else ParseError(layout).

    The bits of re + 1j * im, with no product (1j * inf is 0 * inf, which warns): an im of -0.0
    becomes 0.0, and a re of -0.0 stays -0.0 only where im is negative or -0.0, so [-0.0, 0.0]
    reads, and echoes, as [0.0, 0.0].  The ``analyze --json`` echo of a state depends on this
    rule; the pairs viewed as complex, without the added signed zero, would keep every sign.
    """
    try:
        arr = _reals(raw, "state file entries")
    except ValueError as exc:
        raise ParseError(layout) from exc
    if arr.shape != shape + (2,):
        raise ParseError(f"{layout}, got shape {arr.shape}")
    z = arr.view(complex)[..., 0]
    return z + np.copysign(0.0, z.imag)


def loads_state(text: str) -> StateSpec:
    """Parse the JSON state document; validates the state it describes."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # nesting can exhaust the stack
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
        psi = _split_pairs(doc["amplitudes"], (4,), "amplitudes must be 4 [re, im] pairs of floats")
        return pure_spec(psi, label)
    if kind == "mixed":
        if "matrix" not in doc:
            raise ParseError("mixed state document needs a 'matrix' field")
        rho = _split_pairs(doc["matrix"], (4, 4), "matrix must be 4 x 4 [re, im] pairs of floats")
        return mixed_spec(rho, label)
    raise ParseError(f"kind must be 'pure' or 'mixed', got {kind!r}")


def state_doc(spec: StateSpec) -> dict:
    """The JSON state document of a state, as a dict of plain Python values."""
    doc: dict = {"kind": spec.kind}
    if spec.label is not None:
        doc["label"] = spec.label
    if spec.kind == "pure":
        doc["amplitudes"] = _pairs(spec.amplitudes)
    else:
        doc["matrix"] = _pairs(spec.matrix.matrix)
    return doc


def _pairs(z: np.ndarray) -> list:
    """Complex entries as nested lists of [re, im] Python floats, read through one float view."""
    z = np.ascontiguousarray(z, dtype=complex)
    return z.view(float).reshape(z.shape + (2,)).tolist()


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
