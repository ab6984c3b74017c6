"""The names the benchmark in ``perfbench/`` relies on.

``perfbench/spans.py`` traces bicorr functions by module and name (its
``TRACED`` and ``COUNTED`` tables), and the ``verify`` workload runs
``ALL_CHECKS`` one check per operation.  A rename or a registry edit must
change the benchmark in the same step; these tests make it fail here first.
The spans module is read as source, not imported.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from bicorr import shotsim
from bicorr.correlation import ObservablePair
from bicorr.verify import ALL_CHECKS

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

REGISTRY_NAMES = [
    "linalg: spectral invariants",
    "linalg: singular values of transpose",
    "linalg: |det| equals product of singular values",
    "linalg: rank monotone in tolerance",
    "qstate: Bloch round trip",
    "qstate: pure-state structural identities",
    "qstate: product states have unit local vectors",
    "qstate: partial-trace consistency",
    "correlation: covariance path equivalence",
    "correlation: bilinearity",
    "correlation: pure-state rank dichotomy",
    "correlation: pure-state determinant identity",
    "detect: classifier agrees with Schmidt oracle",
    "detect: protocol soundness on pure states",
    "detect: two probes are insufficient",
    "detect: zero-correlation pair universality",
    "detect: Werner zero sets identical across xi",
    "states: generator outputs validate",
    "states: Werner Bloch round trip",
    "states: generators are deterministic",
    "shotsim: estimator unbiasedness",
    "shotsim: standard error scales as 1/sqrt(shots)",
    "shotsim: bit-identical reruns",
    "shotsim: false-positive control",
]


def _spans_table(name: str):
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {SPANS}")


def test_every_traced_and_counted_function_exists():
    named = [(layer, fn) for layer, fns in _spans_table("TRACED").items() for fn in fns]
    named += [tuple(entry) for entry in _spans_table("COUNTED")]
    assert len(named) > 0
    missing = [
        f"bicorr.{layer}.{fn}"
        for layer, fn in named
        if not callable(getattr(importlib.import_module(f"bicorr.{layer}"), fn, None))
    ]
    assert missing == []


def test_registry_names_are_pinned_in_order():
    assert [name for name, _ in ALL_CHECKS] == REGISTRY_NAMES


def test_a_statistical_run_is_one_protocol_run(monkeypatch):
    # perfbench's probes_per_run metrics divide by the traced binary_protocol calls.
    calls, original = [], shotsim.binary_protocol

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(shotsim, "binary_protocol", counted)
    cfg = shotsim.ShotConfig(shots=1000, seed=1)
    _, trace = shotsim.statistical_binary_protocol(np.eye(4) / 4, cfg=cfg, assume_pure=True)
    assert len(calls) == 1
    assert trace.measurements_used == 3


def test_a_stacked_sample_reports_its_shots_as_an_int():
    # perfbench's span tracer adds shots_used to a Counter and prints the total.
    pair = ObservablePair(x=np.eye(3), y=np.array([0.0, 0.0, 1.0]))
    record = shotsim.sample_joint(np.eye(4) / 4, pair, shotsim.ShotConfig(shots=1000))
    assert record.covariance_estimate.shape == (3,)
    assert type(record.shots_used) is int and record.shots_used == 1000


def test_a_statistical_run_makes_one_probability_call(monkeypatch):
    # perfbench's traced calls_per_op for joint_outcome_probabilities counts one per run.
    calls, original = [], shotsim.joint_outcome_probabilities

    def counted(rho, pair):
        calls.append(pair.x.shape)
        return original(rho, pair)

    monkeypatch.setattr(shotsim, "joint_outcome_probabilities", counted)
    cfg = shotsim.ShotConfig(shots=1000, seed=1)
    for xs, used in ((np.eye(3), 3), (np.eye(3)[::-1], 1)):  # zz-correlated: probe z reads NonZero
        _, trace = shotsim.statistical_binary_protocol(np.diag([0.5, 0, 0, 0.5]), xs=xs, cfg=cfg)
        assert trace.measurements_used == used
    assert calls == [(3, 3), (3, 3)]
