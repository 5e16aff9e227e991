"""Print every end-to-end metric and quality figure, with its unit, per workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree.  Runs `run.py` once per workload and
prints its metrics (per-layer ones with --trace 1), its quality figures and
`error_rate`; exits non-zero if any workload failed or was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 3:
            print(f"{name}: run.py exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        quality = json.loads(lines[-2])["quality"]
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in {**result["metrics"], **quality}.items():
            print(f"  {metric:40s} {entry['value']:<14.6g} {entry['unit']}")
        if not result["correct"]:
            status = 1
            sys.stderr.write(proc.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
