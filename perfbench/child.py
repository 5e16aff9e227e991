"""One repetition of a benchmark workload, in a fresh interpreter.

Run by `run.py`, never imported.  The interpreter imports fraclap from
`<root>/src`, builds the workload's command lines, and records the moment
set-up ended on the system-wide monotonic clock, which `run.py` compares
with the moment it spawned this process.  In mode `setup` it stops there and
reports the environment; otherwise it runs the commands through
`fraclap.cli.main` (mode `untraced` with the speed sampler of `speed.py`
running, mode `traced` with the span wrappers of `spans.py` installed),
checks the outputs and writes a JSON result file.  Every mode times a few
speed probes right after set-up, for scaling `setup_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def blas_environment() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in-process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                    entry.update(config=config().decode(), threads=threads())
        found.append(entry)
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_environment(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    import fraclap.cli

    import workloads

    if Path(fraclap.cli.__file__).resolve().parent != src / "fraclap":
        print(f"child: fraclap imported from {fraclap.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    cmds = workloads.commands(args.workload, args.seed, Path(args.out))
    result: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    import speed

    result["setup_probes"] = speed.probes(speed.SETUP_PROBES)

    if args.mode == "setup":
        result["env"] = environment()
    else:
        recorder, sampler = None, None
        if args.mode == "traced":
            import spans

            recorder = spans.Recorder()
            recorder.install()
        else:
            sampler = speed.Sampler()
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            codes = [fraclap.cli.main(argv) for argv in cmds]
            wall = time.perf_counter() - t0
        if sampler is not None:
            wall -= sum(sampler.durations)  # the probes' own time
            result["probes"] = sampler.durations
            result["probe_weights"] = sampler.weights
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems, quality = workloads.check(args.workload, Path(args.out), codes)
        result.update(wall_s=wall, peak_rss_mb=rss_mb, problems=problems, quality=quality)
        if recorder is not None:
            with open(args.result + ".spans", "w") as fh:
                json.dump(recorder.spans, fh)

    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
