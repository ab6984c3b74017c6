"""Run every workload untraced and traced, and print all of their metrics.

    python3 perfbench/report.py --seed 1 --seconds 10

Each workload runs twice through ``run.py``: with ``--trace 0`` for the
end-to-end metrics and with ``--trace 1`` for the per-layer ones.  Every
metric is printed by name and unit, followed by the run's details.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                ok = False
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print("\n".join(lines[:-2]))
            print(f"{workload:8s} details {lines[-2]}")
            print(f"{workload:8s} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
