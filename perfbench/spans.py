"""Span tracing of bicorr's layers from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
bicorr module that holds a reference to it, so a call made from inside the
library (``binary_protocol`` calling ``correlation_matrix``) is recorded as a
child span of its caller.  Every operation of the workload is a root span.
Spans stay in memory until the run ends.  ``uninstall`` puts the original
functions back.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Layer (bicorr module) -> the functions traced in it.
TRACED = {
    "linalg": ("hermitian_eigenvalues", "symmetric3_singular_values"),
    "qstate": ("as_density_matrix", "bloch_decompose", "purity"),
    "correlation": ("correlation_matrix", "covariance_via_c"),
    "detect": ("classify_pure_by_rank", "binary_protocol", "ppt_is_separable", "schmidt_rank"),
    "shotsim": ("sample_joint", "joint_outcome_probabilities"),
    "states": ("loads_state",),
    "cli": ("build_analysis_report",),
}
# Functions only counted, not timed: a span around them would move time
# between their callers' self times.
COUNTED = (("qstate", "_check_structure"), ("shotsim", "statistical_binary_protocol"))
LAYERS = tuple(TRACED) + ("verify",)
VERIFY_SUITES = ("linalg", "qstate", "correlation", "detect", "states", "shotsim")
ROOT = "op"


def _bicorr_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "bicorr" or name.startswith("bicorr.")]


class Tracer:
    def __init__(self):
        # One tuple per span: (op index, name, parent span index, start ns, end ns).
        self.spans: list = []
        self.errors: dict[str, Counter] = defaultdict(Counter)
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()
        self._patched: list = []

    # -- operations --------------------------------------------------------
    def begin_op(self, t0: int) -> None:
        self._seen_errors.clear()
        self._stack.append(len(self.spans))
        self.spans.append((self.ops, ROOT, None, t0, None))

    def end_op(self, t1: int) -> None:
        index = self._stack.pop()
        op, name, parent, t0, _ = self.spans[index]
        self.spans[index] = (op, name, parent, t0, t1)
        self.ops += 1

    def cancel_op(self) -> None:
        del self.spans[self._stack.pop():]

    # -- patching ----------------------------------------------------------
    def _span(self, layer: str, name: str, fn):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation: output checks are not traced
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.record_error(layer, exc)
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[index] = (tracer.ops, name, parent, t0, t1)
            tracer._on_result(name, result)
            return result

        return wrapper

    def _counter(self, layer: str, name: str, fn):
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def record_error(self, layer: str, exc: Exception) -> None:
        """Count an exception against a layer, unless a span already counted it."""
        if id(exc) not in self._seen_errors:  # count where it was raised, not where it passed
            self._seen_errors.add(id(exc))
            self.errors[layer][type(exc).__name__] += 1

    def _on_result(self, name: str, result) -> None:
        if name == "detect.binary_protocol":
            self.counts["probes"] += len(result[1].probes)
        elif name == "shotsim.sample_joint":
            self.counts["shots"] += result.shots_used

    def install(self) -> None:
        modules = _bicorr_modules()
        home = {m.__name__: m for m in modules}
        targets = [(layer, fn, self._span) for layer, fns in TRACED.items() for fn in fns]
        targets += [(layer, fn, self._counter) for layer, fn in COUNTED]
        for layer, fn_name, make in targets:
            original = getattr(home[f"bicorr.{layer}"], fn_name)
            wrapped = make(layer, f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> list[int]:
        """Each span's duration minus the part covered by its child spans."""
        own = [t1 - t0 for _, _, _, t0, t1 in self.spans]
        for _, _, parent, t0, t1 in self.spans:
            if parent is not None:
                own[parent] -= t1 - t0
        return own

    def metrics(self, scale: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; ``scale[op]`` multiplies the span times of operation ``op``."""
        ops = max(self.ops, 1)
        calls, total, own = Counter(), Counter(), Counter()
        for (op, name, _, t0, t1), self_ns in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += (t1 - t0) * scale[op]
            own[name] += self_ns * scale[op]
        out = {}
        for layer, fns in TRACED.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls_per_op"] = (calls[name] / ops, "count/op")
                out[f"{name}.self_us_per_op"] = (own[name] / ops / 1e3, "us/op")
                out[f"{name}.us_per_call"] = (
                    total[name] / calls[name] / 1e3 if calls[name] else 0.0, "us")
        protocol_runs = calls["detect.binary_protocol"]
        statistical_runs = self.counts["shotsim.statistical_binary_protocol"]
        sampling_ns = own["shotsim.sample_joint"]
        out["qstate.validations_per_op"] = (self.counts["qstate._check_structure"] / ops, "count/op")
        out["detect.probes_per_run"] = (
            self.counts["probes"] / protocol_runs if protocol_runs else 0.0, "count/run")
        out["shotsim.shots_per_s"] = (
            self.counts["shots"] / (sampling_ns / 1e9) if sampling_ns else 0.0, "1/s")
        out["shotsim.probes_per_run"] = (
            calls["shotsim.sample_joint"] / statistical_runs if statistical_runs else 0.0,
            "count/run")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (sum(self.errors[layer].values()) / ops, "count/op")
        return out

    def nesting_residual_ns(self) -> int:
        """Largest gap, over operations, between the sum of self times and the wall time.

        Zero when every span nests inside its parent; anything else means a
        span was lost or mis-parented.
        """
        own, wall = Counter(), Counter()
        for (op, name, _, t0, t1), self_ns in zip(self.spans, self.self_times()):
            own[op] += self_ns
            if name == ROOT:
                wall[op] += t1 - t0
        return max((abs(own[op] - wall[op]) for op in wall), default=0)

    def layer_share(self) -> float:
        """Share of traced operation wall time spent in the self time of layer spans."""
        own = self.self_times()
        root = sum(t1 - t0 for _, name, _, t0, t1 in self.spans if name == ROOT)
        layers = sum(s for (_, name, *_), s in zip(self.spans, own) if name != ROOT)
        return layers / root if root else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
