"""Command-line front end.

Commands: ``analyze`` (Bloch form, correlation matrix, verdicts for a state
file), ``detect`` (three-probe protocol, exact or finite-shot; the exit code
carries the verdict), ``sweep-werner`` (covariance and PPT verdict across the
mixing parameter), ``gen`` (write fixture/random state files), and ``verify``
(run the library's property suites).

``detect --shots`` imports the shot simulator and ``verify`` the property
suites when they run; no other command loads either, so start-up stays short.

Exit codes for ``detect``: 0 separable, 1 entangled, 2 indeterminate.  Every
command exits 3 on usage or input errors, keeping 0..2 unambiguous.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from bicorr import states as statesmod
from bicorr.correlation import ObservablePair, covariance_direct
from bicorr.detect import (
    DEFAULT_XS,
    DEFAULT_Y,
    ENTANGLED,
    INDETERMINATE,
    PPT_ORACLE,
    SEPARABLE,
    binary_protocol,
    ppt_is_separable,
    pure_rank_verdict,
)
from bicorr.linalg import PURE_ENTANGLED_SV_TOL, det3
from bicorr.qstate import CheckedState, _integers, as_density_matrix, density_from_pure
from bicorr.states import ParseError, StateSpec

USAGE_ERROR = 3

_VERDICT_EXIT = {SEPARABLE: 0, ENTANGLED: 1, INDETERMINATE: 2}

_CLI_ERRORS = (OSError, ValueError, MemoryError)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 3 (0..2 are verdicts)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_vector(text: str, flag: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"{flag} needs 3 comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(f"{flag} has a non-numeric component in {text!r}") from exc


def _parse_probe_set(text: str) -> np.ndarray:
    parts = text.split(";")
    if len(parts) != 3:
        raise ParseError(f"--xs needs 3 semicolon-separated vectors, got {text!r}")
    return np.stack([_parse_vector(p, "--xs") for p in parts])


def _parse_pair(text: str) -> ObservablePair:
    parts = text.split("|")
    if len(parts) != 2:
        raise ParseError(f"--pair needs 'x1,x2,x3|y1,y2,y3', got {text!r}")
    return ObservablePair(x=_parse_vector(parts[0], "--pair"), y=_parse_vector(parts[1], "--pair"))


def _fmt(value: float) -> str:
    return f"{value: .12g}"


def _fmt_vec(vec) -> str:
    return "[" + ", ".join(_fmt(v) for v in np.asarray(vec, dtype=float)) + "]"


def _fmt_mat(mat) -> str:
    return "\n".join("  " + _fmt_vec(row) for row in np.asarray(mat, dtype=float))


def _trace_doc(trace) -> dict:
    return {
        "y": trace.y.tolist(),
        "probes": [
            {"x": p.x.tolist(), "covariance": p.covariance, "is_zero": p.is_zero}
            for p in trace.probes
        ],
        "measurements_used": trace.measurements_used,
    }


def _verdict_doc(verdict, detail: str) -> dict:
    return {"label": verdict.label, "basis": verdict.basis, "detail": detail}


# The protocol's detail by (pure run, last probe non-zero): a pure run is one not labeled
# Indeterminate, and {} is the probes read.
_PROTOCOL_DETAILS = {
    (True, True): "non-zero correlation at probe {}",
    (True, False): "all 3 probed correlations are zero",
    (False, True): "non-zero correlation on mixed input",
    (False, False): "zero correlations on mixed input do not certify separability",
}


def _protocol_detail(label: str, trace, cfg=None) -> str:
    """The protocol verdict's detail, from its label and trace, and a shot run's ShotConfig."""
    key = (label != INDETERMINATE, not trace.probes[-1].is_zero)  # only the last can be non-zero
    detail = _PROTOCOL_DETAILS[key].format(trace.measurements_used)
    if cfg is None:
        return detail
    return (
        f"{detail}; statistical decision at {cfg.shots} shots per probe, "
        f"z threshold {repr(cfg.z_threshold).removesuffix('.0')} (confidence, not certainty)"
    )


def build_analysis_report(spec: StateSpec) -> dict:
    """Full analysis of a state: Bloch form, correlation matrix, verdicts and their details.

    The checked state computes its Bloch form, c and sigma(c) once; the protocol reads that c and
    the state's purity, the rank verdict that sigma(c), and each detail is written from the trace
    or sigma(c).
    """
    rho = spec.state
    bf, c = rho.bloch, rho.c
    protocol_verdict, trace = binary_protocol(rho)
    singular_values = rho.singular_values.tolist()
    rank_doc = None
    if spec.kind == "pure":
        detail = f"sigma_max(c) = {singular_values[0]!r} vs threshold {PURE_ENTANGLED_SV_TOL!r}"
        detail += f"; singular values {singular_values}"
        rank_doc = _verdict_doc(pure_rank_verdict(rho), detail)
    return {
        "label": spec.label,
        "kind": spec.kind,
        "state": statesmod.state_doc(spec),
        "bloch": {"a": bf.a.tolist(), "b": bf.b.tolist(), "f": bf.f.tolist()},
        "correlation": {
            "c": c.tolist(),
            "singular_values": singular_values,
            "det": det3(c),
        },
        "verdicts": {
            "rank_dichotomy": rank_doc,
            "ppt": {
                "separable": ppt_is_separable(rho),
                "basis": PPT_ORACLE,
            },
            "protocol": _verdict_doc(
                protocol_verdict, _protocol_detail(protocol_verdict.label, trace)
            ),
        },
        "protocol_trace": _trace_doc(trace),
    }


def _print_analysis(report: dict) -> None:
    label = report["label"] or "(unlabeled)"
    print(f"state: {label}  kind={report['kind']}")
    print(f"bloch a: {_fmt_vec(report['bloch']['a'])}")
    print(f"bloch b: {_fmt_vec(report['bloch']['b'])}")
    print("f:")
    print(_fmt_mat(report["bloch"]["f"]))
    print("c:")
    print(_fmt_mat(report["correlation"]["c"]))
    corr = report["correlation"]
    print(f"singular values: {_fmt_vec(corr['singular_values'])}")
    print(f"det(c): {_fmt(corr['det'])}")
    print("verdicts:")
    rank_verdict = report["verdicts"]["rank_dichotomy"]
    if rank_verdict is not None:
        print(f"  rank dichotomy: {rank_verdict['label']}")
    ppt = report["verdicts"]["ppt"]
    print(f"  ppt oracle:     {'Separable' if ppt['separable'] else 'Entangled'}")
    proto = report["verdicts"]["protocol"]
    print(f"  protocol:       {proto['label']} ({proto['detail']})")


def cmd_analyze(args) -> int:
    spec = statesmod.load_state_file(args.file)
    report = build_analysis_report(spec)
    if args.json:
        print(json.dumps(report))
    else:
        _print_analysis(report)
    return 0


def cmd_detect(args, parser: _Parser) -> int:
    if args.shots is None and (args.seed, args.z) != (None, None):
        parser.error("--seed and --z require --shots")
    spec = statesmod.load_state_file(args.file)
    rho = spec.state
    y = _parse_vector(args.y, "--y") if args.y else DEFAULT_Y
    xs = _parse_probe_set(args.xs) if args.xs else DEFAULT_XS
    if args.shots is not None:
        from bicorr.shotsim import ShotConfig, statistical_binary_protocol

        given = {"seed": args.seed, "z_threshold": args.z}  # ShotConfig owns the defaults
        cfg = ShotConfig(shots=args.shots, **{k: v for k, v in given.items() if v is not None})
        verdict, trace = statistical_binary_protocol(rho, y, xs, cfg, args.assume_pure)
        shots_doc = {name: getattr(cfg, name) for name in cfg._fields}
    else:
        verdict, trace = binary_protocol(rho, y, xs, assume_pure=args.assume_pure)
        cfg = shots_doc = None
    detail = _protocol_detail(verdict.label, trace, cfg)
    if args.json:
        print(
            json.dumps(
                {
                    "label": spec.label,
                    "verdict": _verdict_doc(verdict, detail),
                    "protocol_trace": _trace_doc(trace),
                    "shots": shots_doc,
                }
            )
        )
    else:
        print(f"verdict: {verdict.label} ({detail})")
        for i, probe in enumerate(trace.probes, start=1):
            flag = "zero" if probe.is_zero else "non-zero"
            print(f"  probe {i}: x={_fmt_vec(probe.x)}  c={_fmt(probe.covariance)}  [{flag}]")
        print(f"  measurements used: {trace.measurements_used}")
    return _VERDICT_EXIT[verdict.label]


def cmd_sweep_werner(args) -> int:
    steps = _integers(args.steps, "--steps", 1)
    for flag, bound in (("--from", args.xi_from), ("--to", args.xi_to)):
        if not np.isfinite(bound):  # linspace would spread an infinite bound into nans
            raise ParseError(f"{flag} must be a finite number, got {bound}")
        if not 0.0 <= bound <= 1.0:  # no Werner state; linspace can overflow on a huge bound
            raise ParseError(f"{flag} must lie in [0, 1], got {bound}")
    pair = _parse_pair(args.pair) if args.pair else ObservablePair(x=DEFAULT_Y, y=DEFAULT_Y)
    xy = float(pair.x @ pair.y)
    grid = np.linspace(args.xi_from, args.xi_to, steps).tolist()
    rho = CheckedState(statesmod.werner(grid))
    rows = [
        {"xi": xi, "covariance": covariance, "reference": -xi / 4 * xy, "ppt_separable": separable}
        for xi, covariance, separable in zip(
            grid, covariance_direct(rho, pair).tolist(), ppt_is_separable(rho).tolist()
        )
    ]
    if args.json:
        print(json.dumps({"pair": {"x": pair.x.tolist(), "y": pair.y.tolist()}, "rows": rows}))
    else:
        print(f"pair: x={_fmt_vec(pair.x)}  y={_fmt_vec(pair.y)}")
        print(f"{'xi':>10}  {'covariance':>18}  {'-xi/4 x.y':>18}  ppt")
        for row in rows:
            tag = "separable" if row["ppt_separable"] else "entangled"
            print(
                f"{row['xi']:>10.6f}  {row['covariance']:>18.12f}  "
                f"{row['reference']:>18.12f}  {tag}"
            )
    return 0


def _bell(which: str):
    return lambda args: (statesmod.bell_state(which), args.kind)


# Each gen kind's state, amplitudes or a matrix, and its label; each looks its generator up on
# statesmod when it runs.
_GEN_KINDS = {
    "bell-phim": _bell("phi-"),
    "bell-phip": _bell("phi+"),
    "bell-psim": _bell("psi-"),
    "bell-psip": _bell("psi+"),
    "chen": lambda args: (statesmod.chen_state(), "chen"),
    "werner": lambda args: (statesmod.werner(args.xi), f"werner(xi={args.xi:g})"),
    "haar": lambda args: (statesmod.haar_random_pure(args.seed), f"haar(seed={args.seed})"),
    "product": lambda args: (
        statesmod.random_product_pure(args.seed), f"product(seed={args.seed})"
    ),
    "sep-mixed": lambda args: (
        statesmod.random_separable_mixed(args.seed, args.k),
        f"sep-mixed(seed={args.seed},k={args.k})",
    ),
}


def cmd_gen(args, parser: _Parser) -> int:
    if args.kind == "werner" and args.xi is None:
        parser.error("--kind werner requires --xi")
    state, label = _GEN_KINDS[args.kind](args)
    check = density_from_pure if state.ndim == 1 else as_density_matrix
    spec = StateSpec(check(state), label)
    statesmod.save_state_file(args.out, spec)
    print(f"wrote {spec.kind} state {spec.label!r} to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from bicorr.verify import run_all

    ok = run_all(trials=args.trials, seed=args.seed)
    print("verification: " + ("all suites passed" if ok else "FAILURES detected"))
    return 0 if ok else 1


def make_parser() -> _Parser:
    parser = _Parser(prog="bicorr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="Bloch form, correlation matrix, verdicts")
    p_analyze.add_argument("file", help="state file (JSON)")
    p_analyze.add_argument("--json", action="store_true", help="machine-readable output")
    p_analyze.set_defaults(run=cmd_analyze)

    p_detect = sub.add_parser("detect", help="three-probe entanglement detection")
    p_detect.add_argument("file", help="state file (JSON)")
    p_detect.add_argument("--shots", type=int, help="shot budget (exact calls without it)")
    p_detect.add_argument("--seed", type=int, help="RNG seed for --shots")
    p_detect.add_argument("--z", type=float, help="non-zero decision threshold")
    p_detect.add_argument("--y", help="fixed probe direction, 'y1,y2,y3'")
    p_detect.add_argument("--xs", help="three probe vectors, 'v;v;v'")
    p_detect.add_argument(
        "--assume-pure",
        action="store_true",
        help="apply pure-state semantics to mixed input",
    )
    p_detect.add_argument("--json", action="store_true")
    p_detect.set_defaults(run=lambda args: cmd_detect(args, p_detect))

    p_sweep = sub.add_parser("sweep-werner", help="Werner-family covariance/PPT table")
    p_sweep.add_argument("--from", dest="xi_from", type=float, required=True)
    p_sweep.add_argument("--to", dest="xi_to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--pair", help="observable pair 'x1,x2,x3|y1,y2,y3'")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(run=cmd_sweep_werner)

    p_gen = sub.add_parser("gen", help="write a state file")
    p_gen.add_argument("--kind", required=True, choices=_GEN_KINDS)
    p_gen.add_argument("--xi", type=float, help="Werner mixing parameter")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=4, help="mixture components for sep-mixed")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(run=lambda args: cmd_gen(args, p_gen))

    p_verify = sub.add_parser("verify", help="run the library property suites")
    p_verify.add_argument("--trials", type=int, default=2000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except _CLI_ERRORS as exc:
        print(f"bicorr: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
