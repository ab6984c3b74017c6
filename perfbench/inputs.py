"""Seeded workload inputs, generated with the benchmark's own numpy code.

The library's generators in ``bicorr.states`` are deliberately not used, so a
later change to them cannot change what the benchmark measures.  Every input
of pass ``i`` of a workload comes from one numpy ``Generator`` seeded with
``(seed, workload tag, i)``: the same seed gives the same inputs, whatever the
number of passes a run gets through.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

FAMILIES = ("haar", "product", "weak", "mixture", "separable", "werner")
SHOT_BUDGETS = (10_000, 100_000, 1_000_000)

# Weakly entangled states cos t|00> + sin t|11>: t log-uniform over this range.
# Its lower decades are where the rank classifier and the oracles disagree.
WEAK_T_MIN = 1e-12
WEAK_T_MAX = math.pi / 4

PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def pass_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    tag = zlib.crc32(workload.encode())
    return np.random.default_rng([seed, tag, index])


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def probe_set(rng: np.random.Generator) -> np.ndarray:
    """Three independent random unit vectors, far from linear dependence."""
    while True:
        xs = np.stack([unit_vector(rng) for _ in range(3)])
        if np.linalg.det(xs @ xs.T) > 1e-2:
            return xs


def _unit_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _haar_unitary2(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _qubit_mixed(rng: np.random.Generator) -> np.ndarray:
    bloch = unit_vector(rng) * rng.random() ** (1.0 / 3.0)
    return 0.5 * (np.eye(2) + np.einsum("k,kij->ij", bloch, PAULIS))


def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.exponential(1.0, size=k)
    return w / w.sum()


def _hermitize(rho: np.ndarray) -> np.ndarray:
    return (rho + rho.conj().T) / 2.0


def werner(xi: float) -> np.ndarray:
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    return (1.0 - xi) / 4.0 * np.eye(4) + xi * np.outer(singlet, singlet.conj())


@dataclass(frozen=True, eq=False)
class State:
    """One generated state: pure amplitudes or a mixed density matrix.

    ``param`` is the family parameter the output checks need: t for the weak
    family, xi for Werner states, None otherwise.
    """

    family: str
    psi: np.ndarray | None
    rho: np.ndarray
    param: float | None = None

    @property
    def is_pure(self) -> bool:
        return self.psi is not None

    def document(self) -> str:
        """The state as a bicorr JSON state document."""
        if self.is_pure:
            doc = {
                "kind": "pure",
                "label": self.family,
                "amplitudes": [[float(z.real), float(z.imag)] for z in self.psi],
            }
        else:
            doc = {
                "kind": "mixed",
                "label": self.family,
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in self.rho],
            }
        return json.dumps(doc)


def _pure(family: str, psi: np.ndarray, param: float | None = None) -> State:
    return State(family, psi, np.outer(psi, psi.conj()), param)


def make_state(family: str, rng: np.random.Generator, xi: float | None = None) -> State:
    """Draw one state of the named family; Werner states take their xi."""
    if family == "haar":
        return _pure(family, _unit_complex(rng, 4))
    if family == "product":
        return _pure(family, np.kron(_unit_complex(rng, 2), _unit_complex(rng, 2)))
    if family == "weak":
        t = math.exp(rng.uniform(math.log(WEAK_T_MIN), math.log(WEAK_T_MAX)))
        local = np.kron(_haar_unitary2(rng), _haar_unitary2(rng))
        return _pure(family, local @ np.array([math.cos(t), 0, 0, math.sin(t)]), t)
    if family == "mixture":
        k = int(rng.integers(2, 6))
        rho = sum(w * np.outer(p, p.conj()) for w, p in
                  zip(_weights(rng, k), (_unit_complex(rng, 4) for _ in range(k))))
        return State(family, None, _hermitize(rho))
    if family == "separable":
        k = int(rng.integers(1, 5))
        rho = sum(w * np.kron(_qubit_mixed(rng), _qubit_mixed(rng)) for w in _weights(rng, k))
        return State(family, None, _hermitize(rho))
    if family == "werner":
        return State(family, None, werner(xi), xi)
    raise ValueError(f"unknown state family {family!r}")


def werner_grid(rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniform grid of n points over [0, 1) with a seeded offset."""
    return (np.arange(n) + rng.random()) / n


def survey_pass(seed: int, index: int, per_family: int) -> list[State]:
    """Equal shares of the six families, interleaved."""
    rng = pass_rng(seed, "survey", index)
    xis = iter(werner_grid(rng, per_family))
    return [
        make_state(family, rng, next(xis) if family == "werner" else None)
        for _ in range(per_family)
        for family in FAMILIES
    ]


@dataclass(frozen=True, eq=False)
class ShotRun:
    state: State
    y: np.ndarray
    xs: np.ndarray
    shots: int
    seed: int


def shots_pass(seed: int, index: int, per_stratum: int) -> list[ShotRun]:
    """Every (family, shot budget) stratum per_stratum times, interleaved."""
    rng = pass_rng(seed, "shots", index)
    xis = iter(werner_grid(rng, per_stratum * len(SHOT_BUDGETS)))
    runs = []
    for _ in range(per_stratum):
        for shots in SHOT_BUDGETS:
            for family in FAMILIES:
                state = make_state(family, rng, next(xis) if family == "werner" else None)
                runs.append(ShotRun(state, unit_vector(rng), probe_set(rng), shots,
                                    int(rng.integers(0, 2**62))))
    return runs
