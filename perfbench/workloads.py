"""The three benchmark workloads: their inputs, their timed operation, and the
checks on its outputs.

Each workload is a stream of passes.  ``inputs(i)`` builds pass ``i`` from
the seed, ``execute`` runs its operations in a closed loop (one caller; the
next operation starts when the previous one ends) and times each one through
the ``clock``, and ``check`` judges every output after the timed region.  A
check returns one status per operation: ``ok``, ``failed`` (the operation
raised, or its output is wrong) or ``unchecked`` (``shots`` only: the exact
answer is too close to the decision threshold to predict the sampled one).

``passes_per_second`` sets how many passes a run makes per second of
``--seconds`` (see ``run.py``).

Operations call bicorr through module attributes (``cli.build_analysis_report``,
not a copied reference), so the traced run can patch them.
"""

from __future__ import annotations

import json
import math

import numpy as np

import inputs
from bicorr import cli, detect, shotsim, states, verify

OK = "ok"
FAILED = "failed"
UNCHECKED = "unchecked"

SEPARABLE = "Separable"
ENTANGLED = "Entangled"
INDETERMINATE = "Indeterminate"

# A sampled verdict is compared with the exact one only when every probe's
# expected z-score is 0 or above this; the protocol decides at z = 5.
CLEAR_Z = 8.0
ZERO_COVARIANCE = 1e-10


def _failure_name(output) -> str | None:
    return type(output).__name__ if isinstance(output, Exception) else None


class _OneCallPerItem:
    """A workload whose operation is one call of ``operation`` on one input item."""

    min_passes = 1

    def execute(self, items, clock) -> list:
        outputs = []
        for item in items:
            clock.begin()
            try:
                output = self.operation(item)
            except Exception as exc:  # a raising operation is a failed operation
                output = exc
            clock.end(output)
            outputs.append(output)
        return outputs

    def warm_up(self, item) -> None:
        self.operation(item)

    def check(self, items, outputs) -> list[str]:
        return [self._judge(item, output) for item, output in zip(items, outputs)]

    def _judge(self, item, output) -> str:
        if isinstance(output, Exception):
            return FAILED
        try:
            return self._check_one(item, output)
        except (KeyError, TypeError, ValueError, AttributeError):  # malformed output
            return FAILED


class Survey(_OneCallPerItem):
    """``bicorr analyze --json`` in process, one state document per operation."""

    name = "survey"
    entry_layer = "cli"
    passes_per_second = 8.0  # 120 operations of about 1 ms

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.per_family = 2 if tiny else 20

    def inputs(self, index: int) -> list:
        return [(s, s.document()) for s in inputs.survey_pass(self.seed, index, self.per_family)]

    @staticmethod
    def operation(item) -> str:
        spec = states.loads_state(item[1])
        return json.dumps(cli.build_analysis_report(spec))

    @staticmethod
    def _check_one(item, output) -> str:
        state = item[0]
        verdicts = json.loads(output)["verdicts"]
        ppt_label = SEPARABLE if verdicts["ppt"]["separable"] else ENTANGLED
        protocol_label = verdicts["protocol"]["label"]
        labels = {ppt_label, protocol_label}
        if state.is_pure:
            labels.add(verdicts["rank_dichotomy"]["label"])
            labels.add(SEPARABLE if detect.schmidt_rank(state.psi) == 1 else ENTANGLED)
        elif protocol_label != INDETERMINATE:
            return FAILED
        if {SEPARABLE, ENTANGLED} <= labels:
            return FAILED
        if state.family == "separable" and ppt_label != SEPARABLE:
            return FAILED
        if state.family == "werner" and (ppt_label == SEPARABLE) != (state.param <= 1 / 3):
            return FAILED
        return OK

    @staticmethod
    def input_digest(item) -> str:
        return item[1]

    @staticmethod
    def output_digest(output) -> str:
        return _failure_name(output) or output


def _expected_z(rho: np.ndarray, x: np.ndarray, y: np.ndarray, shots: int) -> float:
    """|covariance| / standard error of one probe, from exact cell probabilities."""
    proj_a = [(np.eye(2) + s * np.einsum("k,kij->ij", x, inputs.PAULIS)) / 2 for s in (1, -1)]
    proj_b = [(np.eye(2) + s * np.einsum("k,kij->ij", y, inputs.PAULIS)) / 2 for s in (1, -1)]
    p11, p10, p01, p00 = (
        float(np.real(np.trace(rho @ np.kron(proj_a[i], proj_b[j]))))
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))
    )
    m_x, m_y = p11 + p10, p11 + p01
    covariance = p11 - m_x * m_y
    if abs(covariance) < ZERO_COVARIANCE:
        return 0.0
    h = np.array([1 - m_x - m_y, -m_y, -m_x, 0.0])
    p = np.array([p11, p10, p01, p00])
    variance = float(p @ h**2 - (p @ h) ** 2)
    return abs(covariance) / math.sqrt(variance / shots) if variance > 0 else math.inf


class Shots(_OneCallPerItem):
    """One finite-shot three-probe protocol run per operation."""

    name = "shots"
    entry_layer = "shotsim"
    passes_per_second = 3.3  # 18 operations, six of them at 1e6 shots

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.per_stratum = 1

    def inputs(self, index: int) -> list:
        return inputs.shots_pass(self.seed, index, self.per_stratum)

    @staticmethod
    def operation(run: inputs.ShotRun):
        cfg = shotsim.ShotConfig(shots=run.shots, seed=run.seed)
        return shotsim.statistical_binary_protocol(run.state.rho, y=run.y, xs=run.xs, cfg=cfg)

    @staticmethod
    def _check_one(run: inputs.ShotRun, output) -> str:
        label = output[0].label
        if not run.state.is_pure:
            return OK if label == INDETERMINATE else FAILED
        zs = [_expected_z(run.state.rho, x, run.y, run.shots) for x in run.xs]
        if not all(z == 0.0 or z > CLEAR_Z for z in zs):
            return UNCHECKED
        exact, _ = detect.binary_protocol(run.state.rho, y=run.y, xs=run.xs)
        return OK if label == exact.label else FAILED

    @staticmethod
    def input_digest(run: inputs.ShotRun) -> str:
        arrays = (run.state.rho, run.y, run.xs)
        return "".join(a.tobytes().hex() for a in arrays) + f"|{run.shots}|{run.seed}"

    @staticmethod
    def output_digest(output) -> str:
        name = _failure_name(output)
        if name:
            return name
        verdict, trace = output
        covs = ",".join(repr(p.covariance) for p in trace.probes)
        return f"{verdict.label}|{trace.measurements_used}|{covs}"


class _StopAfterFirst(Exception):
    pass


class Verify:
    """``bicorr verify`` passes at a fixed trial count; one check is one operation."""

    name = "verify"
    entry_layer = "verify"
    # Seventeen passes fill two blocks of the tail latency (run.TAIL_BLOCK
    # operations), so every run takes its tail from the same mix of checks.
    min_passes = 17
    passes_per_second = 0.85  # one run_all pass of about 1.8 s

    def __init__(self, seed: int, tiny: bool):
        self.trials = 100 if tiny else 200
        self.seed = int(inputs.pass_rng(seed, "verify", 0).integers(0, 2**31))

    def inputs(self, index: int) -> list:
        return [(self.trials, self.seed)]

    def execute(self, items, clock) -> list:
        (trials, seed), = items
        lines = []

        def out(line: str) -> None:
            clock.end(line)
            lines.append(line)
            clock.begin()

        clock.begin()
        try:
            verify.run_all(trials=trials, seed=seed, out=out)
        except Exception as exc:  # the check that raised is the failed operation
            clock.end(exc)
            lines.append(exc)
        else:
            clock.cancel()
        return lines

    def check(self, items, outputs) -> list[str]:
        return [OK if isinstance(o, str) and o.startswith("[PASS]") else FAILED for o in outputs]

    @staticmethod
    def input_digest(item) -> str:
        return f"{item[0]}:{item[1]}"

    @staticmethod
    def output_digest(output) -> str:
        return _failure_name(output) or output

    def warm_up(self, item) -> None:
        """Run only the registry's first check, through ``run_all``."""
        trials, seed = item

        def out(line: str) -> None:
            raise _StopAfterFirst

        try:
            verify.run_all(trials=trials, seed=seed, out=out)
        except _StopAfterFirst:
            pass


WORKLOADS = {w.name: w for w in (Survey, Shots, Verify)}
