"""Benchmark of bicorr: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

Run from anywhere; the script uses the ``src/bicorr`` next to its own
directory and nothing installed.  Workloads (see ``workloads.py``):

* ``survey``: ``bicorr analyze --json`` on one state document per operation;
* ``shots``: one finite-shot three-probe protocol run per operation;
* ``verify``: ``bicorr verify`` passes at a fixed trial count, one check per
  operation.

One process calls the library in a closed loop, with BLAS pinned to one
thread.  A run is a fixed number of whole passes over seeded inputs:
``--seconds`` times the workload's ``passes_per_second``, at least its
``min_passes``.  The rates give about ``--seconds`` of busy time on a shared
2-core Xeon virtual machine; the count does not depend on the machine's speed,
so the same seed and ``--seconds`` always run the same operations, with the
same failures.  Only a run slower than ``MAX_BUSY_FACTOR`` times that stops
early, at the end of a pass.  Input generation, output checks and garbage
collection run between the timed operations.  Every time is scaled by the
reference loop measured around it (see ``reference.py``).

``--trace 0`` reports the end-to-end metrics: operations per second and
``wall_s`` from the median pass, the median and tail operation latency (the
tail per block of ``TAIL_BLOCK`` operations, see ``latency_summary``),
``setup_s``, the median over fresh processes of importing ``bicorr`` and
``bicorr.cli`` and running the first operation, and the peak resident memory.
``--trace 1`` repeats the untraced measurement, then traces a fixed number of
passes and reports the per-layer metrics; the spans go to
``.perfbench_out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
operations that raised or whose output failed its check.  ``correct`` is
false when the outputs do not reproduce: a replay of pass 0 (and, when
tracing, the traced passes) must give bit-identical outputs.  The line before
it is a JSON object of details: machine facts, the tail percentile and its
block, failures by exception type, input and output digests, and the
unscaled times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is imported, here or in a child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
REFERENCE_EVERY_NS = 50_000_000
TRACED_PASSES = {"survey": 5, "shots": 2, "verify": 1}
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency
TAIL_BLOCK = 200
# A run stops early once its busy time passes this many times --seconds.
MAX_BUSY_FACTOR = 5


def import_bicorr() -> None:
    """Import bicorr and bicorr.cli from this checkout's ``src``, and nowhere else."""
    if not (SRC / "bicorr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bicorr sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import bicorr
    import bicorr.cli  # noqa: F401

    if Path(bicorr.__file__).resolve().parent != SRC / "bicorr":
        raise SystemExit(f"perfbench: imported bicorr from {bicorr.__file__}, not {SRC}")


def make_workload(name: str, seed: int, tiny: bool):
    import workloads

    return workloads.WORKLOADS[name](seed, tiny)


def setup_probe(args) -> None:
    """Child process of ``setup_s``: time the import and the first operation.

    Prints that time and the reference loop's time in the same process.
    """
    t0 = perf_counter()
    import_bicorr()
    t1 = perf_counter()
    workload = make_workload(args.workload, args.seed, args.tiny)
    item = workload.inputs(0)[0]
    t2 = perf_counter()
    workload.warm_up(item)
    t3 = perf_counter()
    import reference

    loop_ns = statistics.median(reference.loop_ns() for _ in range(3))
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "reference_ns": loop_ns}))


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes: (scaled by the reference loop, as measured)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    import reference

    scaled, raw = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * reference.NOMINAL_NS / probe["reference_ns"])
    return scaled, raw


class OpClock:
    """Times each operation and, when tracing, opens and closes its root span.

    Every ``REFERENCE_EVERY_NS`` of busy time it also times the reference
    loop, outside any operation, so each operation's time can be scaled by the
    machine speed measured around it.
    """

    def __init__(self, tracer=None, layer: str = ""):
        import reference

        self.reference = reference
        self.tracer = tracer
        self.layer = layer
        self.durations: list[int] = []
        self.busy_ns = 0
        # (operations done, reference loop ns) at each reference measurement.
        self.references = [(0, reference.loop_ns())]
        self._since_reference = 0
        self._t0 = 0

    def begin(self) -> None:
        self._t0 = perf_counter_ns()
        if self.tracer:
            self.tracer.begin_op(self._t0)

    def end(self, output) -> None:
        t1 = perf_counter_ns()
        if self.tracer:
            self.tracer.end_op(t1)
            if isinstance(output, Exception):
                self.tracer.record_error(self.layer, output)
        elapsed = t1 - self._t0
        self.durations.append(elapsed)
        self.busy_ns += elapsed
        self._since_reference += elapsed
        if self._since_reference >= REFERENCE_EVERY_NS:
            self.measure_reference()

    def cancel(self) -> None:
        if self.tracer:
            self.tracer.cancel_op()

    def measure_reference(self) -> None:
        self.references.append((len(self.durations), self.reference.loop_ns()))
        self._since_reference = 0

    def scales(self) -> list[float]:
        """Per operation, the nominal reference time over the one measured around it."""
        out = []
        for (start, before), (stop, after) in zip(self.references, self.references[1:]):
            out += [self.reference.NOMINAL_NS / ((before + after) / 2)] * (stop - start)
        return out


def _suite(line) -> str | None:
    """Check-name prefix of a ``bicorr verify`` line: '[PASS] linalg: ...' -> 'linalg'."""
    return line.split("] ", 1)[1].split(":", 1)[0] if isinstance(line, str) else None


class Log:
    """What the passes of one phase did: op times, statuses and digests.

    ``durations`` are scaled by the reference loop (see ``reference.py``);
    ``raw`` keeps them as measured.
    """

    def __init__(self, digest_passes: int):
        self.digest_passes = digest_passes
        self.bounds = [0]  # operations done at the end of each pass
        self.statuses: Counter = Counter()
        self.failures: Counter = Counter()
        self.suites: list = []  # verify: suite of each operation
        # Per-pass sha256 of the inputs and of the outputs, for the first passes.
        self.input_digests: list[str] = []
        self.output_digests: list[str] = []

    def add(self, workload, index, items, outputs, statuses, ops_done) -> None:
        self.bounds.append(ops_done)
        self.statuses.update(statuses)
        for output, status in zip(outputs, statuses):
            if status == "failed":
                self.failures[type(output).__name__ if isinstance(output, Exception)
                              else "wrong output"] += 1
        if workload.name == "verify":
            self.suites += map(_suite, outputs)
        if index < self.digest_passes:
            self.input_digests.append(_digest(map(workload.input_digest, items)))
            self.output_digests.append(_digest(map(workload.output_digest, outputs)))

    def pass_sums(self, durations: list) -> list:
        return [sum(durations[a:b]) for a, b in zip(self.bounds, self.bounds[1:])]

    def close(self, clock: OpClock) -> None:
        clock.measure_reference()
        self.raw = clock.durations
        self.scale = clock.scales()
        self.references = [ns for _, ns in clock.references]
        self.durations = [d * s for d, s in zip(self.raw, self.scale)]
        self.pass_ns = self.pass_sums(self.durations)
        self.suite_ns = Counter()
        for suite, ns in zip(self.suites, self.durations):
            self.suite_ns[suite] += ns


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def run_passes(workload, passes: int, digest_passes: int, tracer=None,
               max_busy_s: float = float("inf")) -> Log:
    log = Log(digest_passes)
    clock = OpClock(tracer, workload.entry_layer)
    index = 0
    while index < passes and clock.busy_ns < max_busy_s * 1e9:
        items = workload.inputs(index)
        outputs = workload.execute(items, clock)
        log.add(workload, index, items, outputs, workload.check(items, outputs),
                len(clock.durations))
        del items, outputs
        gc.collect()  # the benchmark's own garbage is collected outside the timed region
        index += 1
    log.close(clock)
    return log


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def latency_summary(durations: list[float]) -> dict:
    """Median, and the tail: in each block of ``TAIL_BLOCK`` consecutive operations
    the latency with ``TAIL_BEYOND`` samples beyond it (p94.5), median over the blocks.

    A run shorter than one block is one block.  Taking the tail per block keeps
    it at one percentile, whatever the run's length.  A higher percentile of
    millisecond operations measures how often the machine interrupts the
    process: on a shared 2-core machine the p99 of survey operations moved by
    up to 20% between runs of the same code.
    """
    block = min(TAIL_BLOCK, len(durations))
    rank = max(block - TAIL_BEYOND - 1, 0)
    tails = [sorted(durations[i:i + block])[rank]
             for i in range(0, len(durations) - block + 1, block)]
    return {
        "p50_ms": statistics.median(durations) / 1e6,
        "tail_ms": statistics.median(tails) / 1e6,
        "tail_percentile": 100.0 * (rank + 1) / block,
        "tail_block": block,
        "tail_blocks": len(tails),
    }


def end_to_end(log: Log, setup: list[float]) -> dict:
    lat = latency_summary(log.durations)
    wall_ns = statistics.median(log.pass_ns)
    return {
        "throughput_ops_s": (len(log.durations) / len(log.pass_ns) / (wall_ns / 1e9), "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "wall_s": (wall_ns / 1e9, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(log: Log, traced: Log, tracer) -> dict:
    import spans

    metrics = tracer.metrics(traced.scale)
    passes = len(log.pass_ns)
    for suite in spans.VERIFY_SUITES:
        metrics[f"verify.{suite}.s"] = (log.suite_ns[suite] / passes / 1e9, "s")
    untraced_rate = len(log.durations) / sum(log.durations)
    traced_rate = len(traced.durations) / sum(traced.durations)
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("survey", "shots", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small passes and one set-up sample, for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_bicorr()
    workload = make_workload(args.workload, args.seed, args.tiny)
    traced_passes = 1 if args.tiny else TRACED_PASSES[args.workload]
    passes = 1 if args.tiny else max(traced_passes, workload.min_passes,
                                     round(args.seconds * workload.passes_per_second))
    setup, setup_raw = ([], []) if args.trace else measure_setup(args)

    workload.warm_up(workload.inputs(0)[0])
    log = run_passes(workload, passes, traced_passes,
                     max_busy_s=MAX_BUSY_FACTOR * max(args.seconds, 1.0))
    if len(log.pass_ns) < passes:
        print(f"perfbench: stopped after {len(log.pass_ns)} of {passes} passes",
              file=sys.stderr)
    replay = run_passes(workload, 1, 1)
    reproducible = replay.output_digests[0] == log.output_digests[0]
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "machine": machine_facts(), "passes": len(log.pass_ns), "planned_passes": passes,
               "reference_ms": statistics.median(log.references) / 1e6,
               "statuses": dict(log.statuses), "failures_by_type": dict(log.failures),
               "input_digest": _digest(log.input_digests),
               "output_digest": _digest(log.output_digests)}
    attempted, failed = len(log.durations), log.statuses["failed"]

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, traced_passes, traced_passes, tracer)
        finally:
            tracer.uninstall()
        reproducible &= traced.output_digests == log.output_digests
        attempted += len(traced.durations)
        failed += traced.statuses["failed"]
        metrics = per_layer(log, traced, tracer)
        details.update(
            traced_ops=tracer.ops,
            errors_by_layer={k: dict(v) for k, v in tracer.errors.items() if v},
            nesting_residual_ns=tracer.nesting_residual_ns(),
            layer_self_share=tracer.layer_share(),
            self_time_sum_s=sum(tracer.self_times()) / 1e9,
            traced_wall_s=sum(traced.raw) / 1e9,
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
    else:
        metrics = end_to_end(log, setup)
        lat = latency_summary(log.durations)
        raw = latency_summary(log.raw)
        details.update(tail_percentile=lat["tail_percentile"], tail_block=lat["tail_block"],
                       tail_blocks=lat["tail_blocks"], latency_samples=len(log.durations),
                       setup_samples_s=setup,
                       unscaled={"latency_p50_ms": raw["p50_ms"], "latency_tail_ms": raw["tail_ms"],
                                 "wall_s": statistics.median(log.pass_sums(log.raw)) / 1e9,
                                 "setup_s": statistics.median(setup_raw)})

    summary = dict(metrics)
    summary["failed_share"] = (failed / attempted, "share")
    for name, (value, unit) in summary.items():
        print(f"{args.workload:8s} {name:48s} {value:16.6g} {unit}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": bool(reproducible),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
