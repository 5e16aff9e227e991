"""Workload inputs and output checks for the fraclap benchmark.

A workload is a list of `fraclap` command lines (run in one process through
`fraclap.cli.main`) plus a check that reads the files those commands wrote.
Seed 0 is the reference configuration of each workload; any other seed draws
a nearby input that does the same amount of solver and barrier work:

* the blow-ups keep every solve parameter and draw only the rate-fit window,
  so their operation counts (barrier evaluations, factorizations, sweeps)
  are identical for every seed;
* the sweep draws the nonexistence-family parameter t, which changes the
  amplitude search but not which operator values are needed;
* the constants workload shifts the whole alpha grid by a small offset.

The checks read only the CLI's output files, so this module imports nothing
from fraclap and the benchmark's parent process stays light.
"""

from __future__ import annotations

import csv
import json
import random
from pathlib import Path

LEVELS = ",".join(str(2**k) for k in range(3, 15))  # 8, 16, ..., 16384
ALPHAS = [0.02 * k for k in range(1, 50)]  # 0.02, 0.04, ..., 0.98
CTAU_GRID = "-0.95:-0.05:0.05"
BOUNDARY_RTOL = 1e-9  # the tie tolerance classify_zone6 uses

# units of the quality figures the checks return
QUALITY_UNITS = {
    "rate_rel_err": "ratio",
    "residual_rel_max": "ratio",
    "iterations": "count",
    "shift_rebuilds": "count",
    "verified_frac": "ratio",
    "verified_points": "count",
    "boundary_points": "count",
    "tau0_err_max": "abs",
}

NAMES = ("blowup-interaction", "blowup-strong", "zone-sweep", "constants")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _fit_window(name: str, seed: int, lo: float, hi: float) -> tuple[float, float]:
    """The reference window for seed 0, else each end scaled by 2^U(-0.5, 0.5)."""
    if seed == 0:
        return lo, hi
    rng = _rng(name, seed)
    return lo * 2.0 ** rng.uniform(-0.5, 0.5), hi * 2.0 ** rng.uniform(-0.5, 0.5)


def commands(name: str, seed: int, out: Path) -> list[list[str]]:
    """The fraclap command lines of one repetition of workload `name`."""
    if name == "blowup-interaction":
        lo, hi = _fit_window(name, seed, 6.103515625e-4, 0.02)
        return [[
            "blowup", "--alpha", "0.5", "--p", "2.5", "--n", "2001", "--levels", LEVELS,
            "--sup-tol", "1e-10", "--max-iters", "40000",
            "--fit-lo", repr(lo), "--fit-hi", repr(hi), "--out", str(out),
        ]]
    if name == "blowup-strong":
        lo, hi = _fit_window(name, seed, 3e-4, 2e-3)
        return [[
            "blowup", "--alpha", "0.5", "--p", "4", "--gamma", "-1.8", "--kappa-f", "1",
            "--full-level", "--n", "2001", "--levels", LEVELS,
            "--sup-tol", "1e-10", "--max-iters", "40000",
            "--fit-lo", repr(lo), "--fit-hi", repr(hi), "--out", str(out),
        ]]
    if name == "zone-sweep":
        t = 1.0 if seed == 0 else 2.0 ** _rng(name, seed).uniform(-0.5, 0.5)
        return [[
            "sweep", "--alpha", "0.5", "--p-grid", "1.2:4:0.1", "--tau-grid=-0.9:-0.1:0.05",
            "--family-t", repr(t), "--out", str(out),
        ]]
    if name == "constants":
        offset = 0.0 if seed == 0 else _rng(name, seed).uniform(-0.004, 0.004)
        cmds = []
        for i, alpha in enumerate(ALPHAS):
            a = repr(alpha + offset)
            cmds.append(["tau0", "--alpha", a, "--out", str(out / f"tau0-{i}")])
            cmds.append(["ctau", "--alpha", a, f"--tau-grid={CTAU_GRID}", "--out", str(out / f"ctau-{i}")])
        return cmds
    raise KeyError(name)


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= BOUNDARY_RTOL * max(1.0, abs(a), abs(b))


def _manifest(path: Path) -> dict:
    with (path / "manifest.json").open() as fh:
        return json.load(fh)


def _check_blowup(out: Path) -> tuple[list[str], dict]:
    m = _manifest(out)
    problems = [f"manifest flag {flag} is not true" for flag in (
        "fit_within_tolerance", "sandwich_ok", "monotone_in_levels", "positive_on_final_shell",
    ) if m.get(flag) is not True]
    predicted = m["predicted_exponent"]
    quality = {
        "rate_rel_err": abs(m["fit"]["exponent"] - predicted) / abs(predicted),
        "residual_rel_max": max(lev["final_residual_rel"] for lev in m["levels"]),
        "iterations": sum(lev["iterations"] for lev in m["levels"]),
        "shift_rebuilds": sum(lev["shift_rebuilds"] for lev in m["levels"]),
    }
    return problems, quality


def _check_sweep(out: Path) -> tuple[list[str], dict]:
    m = _manifest(out)
    alpha, tau0 = m["config"]["alpha"], m["tau0"]
    with (out / "zone_map.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    inner = [r for r in rows if r["zone"] != "boundary"]
    for r in rows:
        if r["zone"] != "boundary":
            continue
        p, tau = float(r["p"]), float(r["tau"])
        if not (_near(tau, tau0) or _near(p, 1.0 + 2.0 * alpha) or _near(tau, -2.0 * alpha / (p - 1.0))):
            problems.append(f"boundary point (p={p}, tau={tau}) is on no zone boundary")
    failed = [r for r in inner if r["passed"] != "True"]
    problems += [f"point (p={r['p']}, tau={r['tau']}) did not verify: {r['note']}" for r in failed]
    verified = len(inner) - len(failed)
    quality = {
        "verified_frac": verified / len(inner) if inner else 0.0,
        "verified_points": verified,
        "boundary_points": len(rows) - len(inner),
    }
    return problems, quality


def _check_constants(out: Path) -> tuple[list[str], dict]:
    problems = []
    err_max = 0.0
    for i in range(len(ALPHAS)):
        m = _manifest(out / f"tau0-{i}")
        err_max = max(err_max, abs(m["tau0"] - (m["config"]["alpha"] - 1.0)))
        with (out / f"ctau-{i}" / "ctau.csv").open() as fh:
            if any(float(row["C2"]) <= 0.0 for row in csv.DictReader(fh)):
                problems.append(f"C'' <= 0 in the table for alpha={m['config']['alpha']}")
    if not err_max < 1e-10:
        problems.append(f"max |tau0 - (alpha - 1)| = {err_max:.3e} is not below 1e-10")
    return problems, {"tau0_err_max": err_max}


CHECKS = {
    "blowup-interaction": _check_blowup,
    "blowup-strong": _check_blowup,
    "zone-sweep": _check_sweep,
    "constants": _check_constants,
}


def check(name: str, out: Path, exit_codes: list[int]) -> tuple[list[str], dict]:
    """Problems found in the outputs of one repetition, and its quality figures."""
    bad = [c for c in exit_codes if c != 0]
    if bad:
        return [f"{len(bad)} command(s) exited non-zero: {sorted(set(bad))}"], {}
    return CHECKS[name](out)
