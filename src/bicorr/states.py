"""Fixture states, seeded random-state generators, and the state-file format.

Every random generator takes one seed or a sequence of seeds, which gives a stack of states.
Each seed draws from its own ``np.random.default_rng(seed)`` stream (numpy PCG64) in a fixed
order, and the rest is computed on the whole stack with the bits of the one-seed computation, so
a seed's state is the same alone or in any stack, and every draw is bit-reproducible.  Each call
seeds its flat stack of seeds once (``streams.seed_words``) and hands each kind its rows of the
words, from which each seed gets a fresh generator on its ``default_rng(seed)`` stream, bit for
bit; the pinned seed maps in tests/test_states.py would fail if numpy ever changed its seeding.
A mixture call draws all of its seeds, whatever their k, into one flat stack of terms and builds
the terms in one pass; only the weighted sums run once per k.  ``streams``, and with it
``numpy.random``, is imported on the first draw, so the fixtures and the state files never load it.
"""

from __future__ import annotations

import json
from itertools import accumulate

import numpy as np

from bicorr.linalg import directions
from bicorr.qstate import (
    CheckedState,
    InvalidState,
    _Frozen,
    _integers,
    _observable,
    _projector,
    _reals,
    _require,
    _set,
    as_density_matrix,
    density_from_pure,
)

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
    from bicorr.streams import seed_words  # loaded on the first draw, with numpy.random

    seeds = np.asarray(_integers(seed, "seed", 0, stack=True), dtype=object)
    return seeds, seed_words(seeds.reshape(-1))


def _normal_rows(words: np.ndarray, shape: tuple) -> np.ndarray:
    """Per row of words, an array of `shape` standard normals from that seed's own generator."""
    from bicorr.streams import generators

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


def _mixture_of_k(seed, k, mixture) -> np.ndarray:
    """mixture(words, ks) on the seeds, k one count in [1, 2**63) or one per seed."""
    seeds, words = _seeded(seed)
    ks = np.asarray(_integers(k, "k", 1, 2**63, stack=True), dtype=np.int64)
    try:
        per_seed = np.broadcast_to(ks, seeds.shape)
    except ValueError:  # numpy's text names neither k nor the seeds
        message = f"k of shape {ks.shape} does not broadcast to the seeds' shape {seeds.shape}"
        raise ValueError(message) from None
    return _shaped(seeds, mixture(words, per_seed.reshape(-1)))


def _by_k(words: np.ndarray, ks: np.ndarray):
    """The seeds sorted by k (stable): their order, the length Σk of one flat stack of their
    terms, and per seed in that order its generator and the start and stop of its k terms."""
    from bicorr.streams import generators

    order = np.argsort(ks, kind="stable")
    stops = list(accumulate(ks[order].tolist()))  # Python ints: np.empty refuses a sum past int64
    return order, stops[-1] if stops else 0, zip(generators(words[order]), [0] + stops, stops)


def _mixtures(order: np.ndarray, ks: np.ndarray, weights: np.ndarray, terms: np.ndarray):
    """Per seed, in the caller's order, its k (4, 4) terms summed with its k weights normalized
    to 1; weights and terms hold the seeds' terms in the order ``_by_k`` sorts them.

    Each k is summed on one contiguous (m, k) and (m, k, 4, 4) view, the shapes of a one-seed
    call, which gives every seed that call's bits: numpy sums a last axis in order below 8 entries
    and pairwise from 8 up, and neither a stack padded to the largest k nor ``reduceat`` would.
    """
    ks = ks[order]
    rho = np.empty((len(ks), 4, 4), dtype=complex)
    firsts = np.flatnonzero(np.diff(ks, prepend=0)).tolist()  # each k's first row; every k > 0
    start = 0
    for first, end in zip(firsts, firsts[1:] + [len(ks)]):
        k = int(ks[first])
        stop = start + (end - first) * k
        w = weights[start:stop].reshape(-1, k)
        w = w / w.sum(axis=-1, keepdims=True)
        rho[order[first:end]] = (w[..., None, None] * terms[start:stop].reshape(-1, k, 4, 4)).sum(1)
        start = stop
    return rho


def _separable_mixed(words: np.ndarray, ks: np.ndarray) -> np.ndarray:
    order, total, seeds = _by_k(words, ks)
    # Per seed: k exponential weights, then 2k qubits' normal directions, then their 2k radii.
    weights, normals, radii = np.empty(total), np.empty((2 * total, 3)), np.empty(2 * total)
    for rng, start, stop in seeds:
        rng.standard_exponential(out=weights[start:stop])  # the bits of exponential(1.0, k)
        rng.standard_normal(out=normals[2 * start : 2 * stop])
        rng.random(out=radii[2 * start : 2 * stop])
    radii = np.array([r ** (1.0 / 3.0) for r in radii.tolist()])  # numpy's pow can differ in bits
    qubits = _observable(directions(normals) * radii[:, None])  # each term's A and B, in turn
    a, b = qubits[0::2, :, None, :, None], qubits[1::2, None, :, None, :]
    return _mixtures(order, ks, weights, (a * b).reshape(-1, 4, 4))


def random_separable_mixed(seed, k=4) -> np.ndarray:
    """Convex mixture of k products of random single-qubit states.

    Separable by construction.  The single-qubit factors are drawn with Bloch
    vectors uniform in the unit ball, so they cover the full (generally mixed)
    qubit state space; weights come from normalized exponential draws, i.e.
    uniform on the simplex.  k is one count or one per seed.
    """
    return _mixture_of_k(seed, k, _separable_mixed)


def _mixed(words: np.ndarray, ks: np.ndarray) -> np.ndarray:
    order, total, seeds = _by_k(words, ks)
    weights, normals = np.empty(total), np.empty((total, 2, 4))  # per seed: k weights, k states
    for rng, start, stop in seeds:
        rng.standard_exponential(out=weights[start:stop])
        rng.standard_normal(out=normals[start:stop])
    return _mixtures(order, ks, weights, _projector(_unit_complex(normals)))


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
        lambda w, s: _mixed(w, (2 + s % 4).astype(np.int64)),
        lambda w, s: _separable_mixed(w, (1 + s % 5).astype(np.int64)),
        lambda w, s: _projector(_haar(w)),
    )):
        rows = kind == which
        rho[rows] = draw(words[rows], flat[rows])
    return _shaped(seeds, rho)


class StateSpec(_Frozen):
    """Parsed state file: one checked state and its label.  Its kind is read from the state:
    "pure" for a state built by ``density_from_pure``, which keeps its amplitudes, else "mixed"."""

    __slots__ = _fields = ("state", "label")

    def __init__(self, state: CheckedState, label: str | None = None) -> None:
        shape = state.matrix.shape
        if len(shape) > 2:
            raise InvalidState(f"a state spec holds one state, got a stack of shape {shape}")
        _set(self, "state", state)
        _set(self, "label", label)

    @property
    def kind(self) -> str:
        return "mixed" if self.state.amplitudes is None else "pure"


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
        return StateSpec(density_from_pure(psi), label)
    if kind == "mixed":
        if "matrix" not in doc:
            raise ParseError("mixed state document needs a 'matrix' field")
        rho = _split_pairs(doc["matrix"], (4, 4), "matrix must be 4 x 4 [re, im] pairs of floats")
        return StateSpec(as_density_matrix(rho), label)
    raise ParseError(f"kind must be 'pure' or 'mixed', got {kind!r}")


def state_doc(spec: StateSpec) -> dict:
    """The JSON state document of a state, as a dict of plain Python values."""
    doc: dict = {"kind": spec.kind}
    if spec.label is not None:
        doc["label"] = spec.label
    psi = spec.state.amplitudes
    if psi is not None:
        doc["amplitudes"] = _pairs(psi)
    else:
        doc["matrix"] = _pairs(spec.state.matrix)
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
