"""fraclap benchmark: one workload, every repetition in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/fraclap`).
Each repetition is its own process, because fraclap keeps module-level
caches that a second in-process run would hit; a CLI user pays the cold cost
on every invocation.  A run first makes SETUP_PROBES set-up-only processes,
then repeats the workload while the next repetition, judged by the last
one, would end less than half a repetition after S seconds (at least once;
with --trace 1 at least two traced and one untraced repetition,
alternating), so a run lasts about S seconds whatever the repetition length.

Standard output ends with three JSON lines: the environment, the quality
figures (medians over repetitions) with `error_rate`, and the result object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (medians over repetitions), with --trace 1 the
per-layer ones from the traced repetitions.  The end-to-end times are
scaled to a reference machine speed by the probes of `speed.py`; the
quality line also gives them raw (`wall_raw_s`, `setup_raw_s`) with the
measured `speed`.  Problems found in the outputs go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
HARD_LIMIT_S = 170.0  # no repetition may run past this, so a run ends within 180 s

# repetition modes by --trace: the first MIN_MODES always run, then CYCLE repeats
MIN_MODES = {0: ("untraced",), 1: ("traced", "traced", "untraced")}
CYCLE = {0: ("untraced",), 1: ("traced", "untraced")}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# metric name -> (key in the summary of one traced process, unit)
PER_LAYER = {
    "quadrature.eval_C.calls": ("quadrature.eval_C.calls", "count"),
    "quadrature.eval_C.s": ("quadrature.eval_C.s", "s"),
    "quadrature.eval_C_derivatives.calls": ("quadrature.eval_C_derivatives.calls", "count"),
    "quadrature.eval_C_derivatives.s": ("quadrature.eval_C_derivatives.s", "s"),
    "exponents.find_tau0.calls": ("exponents.find_tau0.calls", "count"),
    "exponents.find_tau0.s": ("exponents.find_tau0.s", "s"),
    "operator.eval_on_power.calls": ("operator.eval_on_power.calls", "count"),
    "operator.eval_on_power.s": ("operator.eval_on_power.s", "s"),
    "operator.eval_on_power.us_per_call": ("operator.eval_on_power.us_per_call", "us"),
    "operator.assemble.s": ("operator.assemble.s", "s"),
    "barriers.make_existence_pair.s": ("barriers.make_existence_pair.s", "s"),
    "barriers.make_nonexistence_family.s": ("barriers.make_nonexistence_family.s", "s"),
    "barriers.globalize_pair.s": ("barriers.globalize_pair.s", "s"),
    "barriers.torsion.s": ("barriers.torsion.s", "s"),
    "barriers.term_arrays.points": ("barriers.term_arrays.points", "count"),
    "barriers.op_reuse_ratio": ("barriers.op_reuse_ratio", "ratio"),
    "solvers.lu_factor.calls": ("solvers.lu_factor.calls", "count"),
    "solvers.lu_factor.s": ("solvers.lu_factor.s", "s"),
    "solvers.lu_factor.gflop_computed": ("solvers.lu_factor.gflop_computed", "GFLOP"),
    "solvers.lu_solve.calls": ("solvers.lu_solve.calls", "count"),
    "solvers.lu_solve.s": ("solvers.lu_solve.s", "s"),
    "solvers.iterations": ("solvers.solve_blowup.iterations", "count"),
    "solvers.shift_rebuilds": ("solvers.solve_blowup.shift_rebuilds", "count"),
    "solvers.solve_blowup.self_s": ("solvers.solve_blowup.self_s", "s"),
    "rates.fit_exponent.s": ("rates.fit_exponent.s", "s"),
    "grid.to_csv.calls": ("grid.to_csv.calls", "count"),
    "grid.to_csv.s": ("grid.to_csv.s", "s"),
    **{f"{layer}.self_s": (f"{layer}.self_s", "s") for layer in spans.LAYERS},
    "other.self_s": ("other.self_s", "s"),
    "trace.wall_s": ("wall_s", "s"),
    "trace.overhead_s": ("overhead_s", "s"),
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns the child processes of one benchmark run and collects results."""

    def __init__(self, root: Path, workload: str, seed: int, start: float):
        self.root, self.workload, self.seed, self.start = root, workload, seed, start
        self.work = root / ".perfbench_out" / f"{workload}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "FRACLAP_THREADS"}
        self.count = 0

    def spawn(self, mode: str) -> dict:
        """Run one child; returns its result (None on failure) and timings."""
        tag = f"{self.count:03d}-{mode}"
        self.count += 1
        out, result = self.work / tag, self.work / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "child.py"), "--root", str(self.root),
            "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
            "--out", str(out), "--result", str(result),
        ]
        self.work.mkdir(parents=True, exist_ok=True)
        before = speed.probes(speed.SETUP_PROBES)
        spawned = _now()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=sys.stderr)
        code = None
        try:
            code = proc.wait(timeout=max(1.0, self.start + HARD_LIMIT_S - spawned))
        except subprocess.TimeoutExpired:
            pass
        finally:  # also on SIGTERM or Ctrl-C: never leave a child running
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        rep = {"mode": mode, "duration": _now() - spawned, "data": None, "spans": None}
        if code == 0 and result.is_file():
            data = rep["data"] = json.loads(result.read_text())
            data["setup_raw_s"] = data["ready"] - spawned
            data["setup_s"] = data["setup_raw_s"] * speed.speed(before + data["setup_probes"])
            if "probes" in data:  # untraced: wall_s is raw, less the probes' own time
                data["speed"] = speed.speed(data["probes"], data["probe_weights"])
                data["wall_scaled_s"] = data["wall_s"] * data["speed"]
            span_file = Path(f"{result}.spans")
            if span_file.is_file():
                rep["spans"] = json.loads(span_file.read_text())
        else:
            print(f"run: {mode} child exited with {code}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def _layer_metrics(traced: list[dict], untraced_wall: float | None) -> dict:
    per_rep = []
    for rep in traced:
        wall = rep["data"]["wall_s"]
        flat = spans.summarize(rep["spans"], wall)
        calls = flat.get("operator.eval_on_power.calls", 0)
        points = flat.get("barriers.term_arrays.points", 0)
        flat["operator.eval_on_power.us_per_call"] = (
            1e6 * flat["operator.eval_on_power.s"] / calls if calls else 0.0
        )
        flat["barriers.op_reuse_ratio"] = 1.0 - calls / points if points else 0.0
        flat["wall_s"] = wall
        flat["overhead_s"] = wall - untraced_wall if untraced_wall is not None else 0.0
        per_rep.append(flat)
    return {
        name: {"value": statistics.median(r.get(key, 0) for r in per_rep) if per_rep else 0.0,
               "unit": unit}
        for name, (key, unit) in PER_LAYER.items()
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "fraclap" / "cli.py").is_file():
        print(f"run: no fraclap source tree at {root / 'src' / 'fraclap'}", file=sys.stderr)
        return 2

    start = _now()
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "FRACLAP_THREADS": os.environ.get("FRACLAP_THREADS"),  # children run with it unset
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    runner = Runner(root, args.workload, args.seed, start)
    try:
        probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
        if any(p["data"] is None for p in probes):
            print("run: a set-up probe failed; fraclap cannot be imported here", file=sys.stderr)
            return 2
        env.update(probes[0]["data"]["env"])
        minimum, cycle = MIN_MODES[args.trace], CYCLE[args.trace]
        reps = []
        while True:
            if len(reps) < len(minimum):
                mode = minimum[len(reps)]
            else:
                mode = cycle[(len(reps) - len(minimum)) % len(cycle)]
                last = reps[-1]["duration"]
                if _now() + 0.5 * last > start + args.seconds or _now() + last > start + HARD_LIMIT_S:
                    break
            reps.append(runner.spawn(mode))
    finally:
        runner.cleanup()

    problems = []
    failed = 0
    for rep in reps:
        if rep["data"] is None:
            failed += 1
            problems.append(f"{rep['mode']} repetition produced no result")
        elif rep["data"]["problems"]:
            failed += 1
            problems += rep["data"]["problems"]
    ok = [r for r in reps if r["data"] is not None]
    untraced = [r for r in ok if r["mode"] == "untraced"]
    traced = [r for r in ok if r["mode"] == "traced" and r["spans"] is not None]

    if args.trace:
        counts = [sum(1 for s in r["spans"] if s[0] == "operator.eval_on_power") for r in traced]
        if len(set(counts)) > 1:
            problems.append(
                f"operator.eval_on_power.calls differs across fresh-process repetitions {counts}: "
                "state is carried from one process to the next"
            )
        untraced_wall = statistics.median(r["data"]["wall_s"] for r in untraced) if untraced else None
        if not traced:
            problems.append("no traced repetition completed")
        metrics = _layer_metrics(traced, untraced_wall)
    else:
        if not untraced:
            problems.append("no untraced repetition completed")
        setups = [r["data"]["setup_s"] for r in probes + ok]
        values = {
            "wall_s": statistics.median(r["data"]["wall_scaled_s"] for r in untraced) if untraced else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["data"]["peak_rss_mb"] for r in untraced) if untraced else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    quality = {
        "error_rate": {"value": failed / len(reps), "unit": "ratio"},
        "repetitions": {"value": len(reps), "unit": "count"},
        "setup_raw_s": {"value": statistics.median(r["data"]["setup_raw_s"] for r in probes + ok),
                        "unit": "s"},
    }
    if untraced:
        quality["wall_raw_s"] = {"value": statistics.median(r["data"]["wall_s"] for r in untraced),
                                 "unit": "s"}
        quality["speed"] = {"value": statistics.median(r["data"]["speed"] for r in untraced),
                            "unit": "ratio"}
    for key, unit in workloads.QUALITY_UNITS.items():
        values = [r["data"]["quality"][key] for r in ok if key in r["data"]["quality"]]
        if values:
            quality[key] = {"value": statistics.median(values), "unit": unit}
    for problem in problems:
        print(f"run: {problem}", file=sys.stderr)

    print(json.dumps({"env": env}))
    print(json.dumps({"quality": quality}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
