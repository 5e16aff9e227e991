"""Configuration-driven command line runner.

Every operation of the library is reachable through a subcommand; each run
writes a manifest.json (full configuration echo, computed constants, fitted
exponents, pass flags) plus CSV profiles for any produced grid function.
An argument @FILE stands for the arguments in FILE, one per line
(`--alpha=0.5`); an option given twice takes its later value.  Exit codes:
0 success, 2 configuration error, 3 convergence failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from dataclasses import asdict, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .barriers import (
    collar_points,
    make_existence_pair,
    make_nonexistence_family,
    make_special_pair,
    nonexistence_search,
    verify_barrier,
)
from .errors import (
    AmbiguousRegimeError,
    ConvergenceError,
    DomainError,
    FraclapError,
    VerificationError,
)
from .exponents import ProblemParams, RegimeZone, classify_regime, classify_zone6, find_tau0
from .fields import SourceField
from .grid import Grid1D, GridFunction
from .operator import assemble
from .quadrature import eval_C, eval_C_derivatives
from .rates import _on_window, fit_exponent, verify_prop32
from .solvers import IterationConfig, solve_blowup, solve_linear, solve_semilinear

EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_VERIFICATION = 2, 3, 4
GRID_MAX_POINTS = 100_000  # the most points a lo:hi:step grid spec may ask for


def _grid_spec(text: str) -> np.ndarray:
    """Parse lo:hi:step into an inclusive grid of at most GRID_MAX_POINTS
    points, refused before any allocation otherwise."""
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise DomainError(f"grid spec {text!r} is not lo:hi:step") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise DomainError(f"grid spec {text!r} must have finite lo, hi and step")
    if step <= 0 or hi < lo:
        raise DomainError(f"grid spec {text!r} must have lo <= hi and step > 0")
    # round(intervals) + 1 points; hi - lo may overflow to inf, and the
    # quotient too: both fail the test
    intervals = (hi - lo) / step
    if not intervals < GRID_MAX_POINTS - 0.5:
        raise DomainError(f"grid spec {text!r} asks for more than {GRID_MAX_POINTS} points")
    n = int(round(intervals))
    vals = lo + step * np.arange(n + 1)
    # lo + step*k drifts by rounding: pin the end point, and a crossing of 0
    # (where the tau domain (-1, 0] ends), to their exact values
    near = 1e-9 * step
    vals[np.abs(vals - hi) <= near] = hi
    vals[np.abs(vals) <= near] = 0.0
    return vals


def _source_from(args) -> SourceField:
    if args.gamma is None:
        if args.kappa_f is not None:
            raise DomainError("--kappa-f is the amplitude of the source d^gamma: "
                              "it needs --gamma")
        return SourceField.zero()
    return SourceField.power_collar(args.gamma, 1.0 if args.kappa_f is None else args.kappa_f)


def _build_grid(args) -> Grid1D:
    include = [1.0 / shell for shell in getattr(args, "levels", ())]
    return Grid1D.graded(args.n, args.grading, include=include)


def _levels(args, grid: Grid1D) -> tuple:
    levels = tuple(args.levels)
    if getattr(args, "full_level", False):
        levels = levels + (int(2.0 / grid.min_spacing),)
    return levels


def _jsonable(obj):
    """json.dump's hook for what JSON lacks: a result dataclass becomes its
    fields, an enum its value, an array a list and a numpy scalar a float."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return float(obj)


def _write_json(path: Path, payload: dict) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonable)
        fh.write("\n")


# --------------------------------------------------------------------------
# subcommands: each writes its CSVs to args.out, which exists, and returns
# (manifest payload, ok); main writes the manifest
# --------------------------------------------------------------------------


def cmd_ctau(args):
    if (args.tau is None) == (args.tau_grid is None):
        raise DomainError("ctau needs exactly one of --tau and --tau-grid")
    rows = []
    for tau in _grid_spec(args.tau_grid) if args.tau is None else [args.tau]:
        c = eval_C(float(tau), args.alpha)
        c1, c2 = eval_C_derivatives(float(tau), args.alpha)
        rows.append((float(tau), c, c1, c2))
    with (Path(args.out) / "ctau.csv").open("w") as fh:
        fh.write("tau,C,C1,C2\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    return {
        "n_points": len(rows),
        "C_first": rows[0][1],
        "C_last": rows[-1][1],
        "convex_everywhere": bool(all(r[3] > 0 for r in rows)),
    }, True


def cmd_tau0(args):
    kc = find_tau0(args.alpha)
    residual = abs(eval_C(kc.tau0, args.alpha))
    return {"tau0": kc.tau0, "p_star": kc.p_star, "residual": residual}, True


def cmd_regime(args):
    kc = find_tau0(args.alpha)
    params = ProblemParams(args.alpha, args.p, source=_source_from(args))
    report = classify_regime(params, tau=args.tau)
    return {"tau0": kc.tau0, "p_star": kc.p_star, **asdict(report)}, True


def cmd_solve(args):
    source = _source_from(args)
    if source.kind == "power_collar" and source.kappa_f < 0:
        raise DomainError("solve expects a nonnegative source")
    params = ProblemParams(args.alpha, args.p, source=source)
    cfg = IterationConfig(max_iters=args.max_iters, sup_tol=args.sup_tol)
    grid = _build_grid(args)
    op = assemble(grid, args.alpha)
    f_vals = source.value(grid.nodes)
    sub = GridFunction.zeros(grid)
    super_ = solve_linear(op, 0.0, f_vals)
    u, trace = solve_semilinear(params, op, sub, super_, cfg)
    u.to_csv(Path(args.out) / "solution.csv")
    return {
        "trace": trace,
        "sup_norm": float(np.max(np.abs(u.values))),
        "profiles": ["solution.csv"],
    }, True


def cmd_blowup(args):
    if not 0.0 <= args.fit_tol < math.inf:
        raise DomainError(f"blowup --fit-tol={args.fit_tol} must be finite and >= 0")
    kc = find_tau0(args.alpha)
    params = ProblemParams(args.alpha, args.p, source=_source_from(args))
    grid = _build_grid(args)
    levels = _levels(args, grid)
    cfg = IterationConfig(
        max_iters=args.max_iters,
        sup_tol=args.sup_tol,
        exhaustion_levels=levels,
    )
    # by default keep the window clear of the deepest imposed shell, where
    # the level solution is pinned to the barrier data
    fit_lo = args.fit_lo if args.fit_lo is not None else 2.5 / max(levels)
    fit_hi = args.fit_hi if args.fit_hi is not None else max(0.02, 10.0 / max(levels))
    window = (fit_lo, fit_hi)
    _on_window(grid, window)  # a window that cannot fit is refused before the solve
    regime = classify_regime(params)
    # a full-depth final level (--full-level, or a last shell that frees
    # every node) solves the source-driven problem, whose rate is the pair's
    # only in the weak- and strong-source zones (f = 0 is refused by the
    # solver)
    if grid.free_mask(levels[-1]).all() and not params.source.is_zero:
        full = "--full-level (or a last shell that frees every node)"
        if args.family_t is not None:
            raise DomainError(f"blowup {full} with a source solves the source-driven "
                              "problem, not the critical-rate family of --family-t")
        if regime.zone not in (RegimeZone.WEAK_SOURCE, RegimeZone.STRONG_SOURCE):
            raise DomainError(f"blowup {full} with a source in zone {regime.zone.value} "
                              "solves the source-driven problem, whose rate is not the zone's; "
                              "it needs the weak_source or strong_source zone")
    pair = None if args.family_t is None else make_special_pair(params, args.family_t)
    result = solve_blowup(params, grid, cfg, pair=pair)
    outdir = Path(args.out)
    profiles = []
    for lev in result.levels:
        name = f"level_{lev.shell}.csv"
        lev.solution.to_csv(outdir / name)
        profiles.append(name)
    # the final profile is the last level's solution: copy its bytes
    shutil.copyfile(outdir / profiles[-1], outdir / "solution.csv")
    profiles.append("solution.csv")

    fit = fit_exponent(result.final, window)
    # the critical-rate family carries the root exponent, not the zone rate
    predicted = kc.tau0 if args.family_t is not None else regime.predicted_exponent
    fit_ok = (
        predicted is not None
        and abs(fit.exponent - predicted) <= args.fit_tol * abs(predicted)
    )
    positive = bool(np.all(result.final.values[result.final_free] > 0))
    return {
        "tau0": kc.tau0,
        "p_star": kc.p_star,
        "zone": regime.zone,
        "predicted_exponent": predicted,
        "fit": fit,
        "fit_within_tolerance": bool(fit_ok),
        "monotone_in_levels": result.monotone_in_levels,
        "sandwich_ok": result.sandwich_ok,
        "positive_on_final_shell": positive,
        "levels": [{"shell": lev.shell, **asdict(lev.trace)} for lev in result.levels],
        # the chosen lambda, the scale c of W = c sub + lambda V and the rung
        # above c's, failing or past the bound (null above the top rung),
        # and per role its worst discrete margin and that node's d (null for
        # a role checked on no row)
        "globalization": {
            "lambda": result.pair_reports[0].mu,
            "sub_scale": result.pair_reports[1].scale,
            "sub_scale_limit": result.pair_reports[1].scale_limit,
            **{
                r.role: {"worst_margin": r.worst_margin, "d": r.worst_x} if r.nodes.size else None
                for r in result.pair_reports
            },
        },
        # the lower bound `sandwich_ok` tested on every node: the zero start
        # of a full-depth final level, else W
        "lower_bound": "zero" if result.final_free.all() else "W",
        "profiles": profiles,
    }, fit_ok and result.sandwich_ok and result.monotone_in_levels and positive


def cmd_verify_barriers(args):
    if args.tau is not None and args.family_t is None:
        raise DomainError("verify-barriers --tau selects a nonexistence family member: "
                          "it needs --family-t")
    params = ProblemParams(args.alpha, args.p, source=_source_from(args))
    if args.tau is not None:
        fam, report = make_nonexistence_family(params, args.family_t, args.tau)
        ok, payload = report.passed, {"family": fam.describe(), "report": report}
    else:
        if args.family_t is not None:
            sup, sub = make_special_pair(params, args.family_t)
            payload = {}
        else:
            regime = classify_regime(params)
            sup, sub = make_existence_pair(params, regime)
            payload = {"zone": regime.zone}
        r_sup = verify_barrier(sup, params, "super", collar_points())
        r_sub = verify_barrier(sub, params, "sub", collar_points())
        payload.update(super=r_sup, sub=r_sub, super_terms=sup.describe(), sub_terms=sub.describe())
        ok = r_sup.passed and r_sub.passed
    return {"passed": ok, **payload}, ok


def cmd_verify_prop32(args):
    report = verify_prop32(args.alpha, args.tau)
    return {**asdict(report), "passed": report.passed}, report.passed


def cmd_sweep(args):
    taus = [float(tau) for tau in _grid_spec(args.tau_grid)]
    outside = [tau for tau in taus if not -1.0 < tau <= 0.0]
    if outside:
        # the family's profile d^tau exists only there: no row could verify
        raise DomainError(f"sweep tau={outside[0]!r} outside (-1, 0]")
    if not 0.0 < args.family_t < math.inf:
        raise DomainError(f"sweep --family-t={args.family_t!r} must be positive and finite")
    kc = find_tau0(args.alpha)
    # the params depend on p alone: one per p, shared by every tau
    grid_params = [ProblemParams(args.alpha, float(p)) for p in _grid_spec(args.p_grid)]
    rows = []
    # per tau, the points off the zone boundaries: (row, params, zone, role)
    searched = {}
    for tau in taus:
        for params in grid_params:
            p = params.p
            row = {"p": p, "tau": tau, "predicted_exponent": ""}
            rows.append(row)
            try:
                regime = classify_regime(params, tau=tau)
                row["regime"] = regime.zone.value
                if regime.predicted_exponent is not None:
                    row["predicted_exponent"] = repr(regime.predicted_exponent)
            except AmbiguousRegimeError:  # p ties a zone boundary
                row["regime"] = "boundary"
            except DomainError:
                # tau = 0 lies outside the classification's open domain
                # (-1, 0); a p that ties a zone boundary is still reported
                try:
                    classify_regime(params)
                    row["regime"] = "unclassified"
                except AmbiguousRegimeError:
                    row["regime"] = "boundary"
            try:
                zone, role = classify_zone6(p, tau, args.alpha)
            except DomainError as exc:
                row.update(zone="boundary", role="", mu=float("nan"), passed=False, note=str(exc))
                continue
            row.update(zone=f"zone{zone}", role=role)
            searched.setdefault(tau, []).append((row, params, zone, role))
    # the family's operator values depend on tau alone: one evaluation for
    # every tau that reaches the amplitude search, each tau's shared by its p
    if searched:
        searches = nonexistence_search(args.alpha, args.family_t, list(searched))
        for search, points in zip(searches, searched.values()):
            for row, params, zone, role in points:
                try:
                    fam, report = search(params, zone, role)
                    row.update(mu=fam.terms[1][0], passed=bool(report.passed), note="")
                except (VerificationError, DomainError) as exc:
                    row.update(mu=float("nan"), passed=False, note=str(exc))
    rows.sort(key=lambda r: (r["p"], r["tau"]))
    with (Path(args.out) / "zone_map.csv").open("w") as fh:
        fh.write("p,tau,zone,role,mu,passed,regime,predicted_exponent,note\n")
        for r in rows:
            fh.write(
                f'{r["p"]!r},{r["tau"]!r},{r["zone"]},{r["role"]},{r["mu"]!r},'
                f'{r["passed"]},{r["regime"]},{r["predicted_exponent"]},"{r["note"]}"\n'
            )
    return {
        "tau0": kc.tau0,
        "p_star": kc.p_star,
        "n_points": len(rows),
        "n_passed": sum(1 for r in rows if r["passed"]),
        "outputs": ["zone_map.csv"],
    }, True


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

# flag: add_argument keywords (every subcommand takes --out)
OPTIONS = {
    "--out": dict(default="fraclap-out", help="output directory"),
    "--alpha": dict(type=float, default=None),
    "--p": dict(type=float, default=None),
    "--gamma": dict(type=float, default=None, help="source exponent (power collar)"),
    "--kappa-f": dict(type=float, default=None, help="source amplitude (default 1)"),
    "--tau": dict(type=float, default=None),
    "--tau-grid": dict(default=None, help="lo:hi:step"),
    "--p-grid": dict(default=None, help="lo:hi:step"),
    "--n": dict(type=int, default=1001, help="interior grid nodes"),
    "--grading": dict(type=float, default=3.0),
    "--max-iters": dict(type=int, default=20000),
    "--sup-tol": dict(type=float, default=1e-9),
    "--levels": dict(type=lambda s: tuple(int(v) for v in s.split(",")),
                     default=(8, 16, 32, 64, 128)),
    "--full-level": dict(action="store_true",
                         help="append a shell below grid resolution (needs f > 0)"),
    "--family-t": dict(type=float, default=None, help="barrier family parameter t"),
    "--fit-lo": dict(type=float, default=None,
                     help="fit window start (default: 2.5 / deepest shell)"),
    "--fit-hi": dict(type=float, default=None,
                     help="fit window end (default: max(0.02, 10 / deepest shell))"),
    "--fit-tol": dict(type=float, default=0.05),
}

PROBLEM = ("--alpha", "--p", "--gamma", "--kappa-f")
SOLVER = ("--n", "--grading", "--max-iters", "--sup-tol")

# name: (handler, help, flags after --out, the required ones among them,
#        defaults that differ from OPTIONS)
COMMANDS = {
    "ctau": (cmd_ctau, "kernel constant C and its derivatives",
             ("--alpha", "--tau", "--tau-grid"), ("--alpha",), {}),
    "tau0": (cmd_tau0, "critical exponent tau0 and p*", ("--alpha",), ("--alpha",), {}),
    "regime": (cmd_regime, "classify parameters against the existence/nonexistence zones",
               PROBLEM + ("--tau",), ("--alpha", "--p"), {}),
    "solve": (cmd_solve, "bounded monotone semilinear solve",
              PROBLEM + SOLVER, ("--alpha", "--p"), {}),
    "blowup": (cmd_blowup, "boundary blow-up solve by exhaustion",
               PROBLEM + SOLVER + ("--levels", "--full-level", "--family-t", "--fit-lo",
                                   "--fit-hi", "--fit-tol"), ("--alpha", "--p"), {}),
    "verify-barriers": (cmd_verify_barriers, "verify super/sub-solution constructions",
                        PROBLEM + ("--tau", "--family-t"), ("--alpha", "--p"), {}),
    "verify-prop32": (cmd_verify_prop32, "verify barrier asymptotics for one tau",
                      ("--alpha", "--tau"), ("--alpha", "--tau"), {}),
    "sweep": (cmd_sweep, "zone map over a (p, tau) grid",
              ("--alpha", "--p-grid", "--tau-grid", "--family-t"),
              ("--alpha", "--p-grid", "--tau-grid"), {"family_t": 1.0}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fraclap parser.

    With `command` only that subcommand's parser is built, since every option
    costs argparse a formatter; without it all are, for --help and errors.
    """
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="critical constants, barriers and blow-up solves for the "
        "fractional semilinear problem on the unit interval",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, required, defaults) in COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=help_text)
            for flag in ("--out", *flags):
                sp.add_argument(flag, required=flag in required, **OPTIONS[flag])
            sp.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    func = COMMANDS[args.command][0]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        payload, ok = func(args)
    except FraclapError as exc:
        _write_json(outdir / "error.json", {"error": type(exc).__name__, "message": str(exc)})
        if isinstance(exc, DomainError):
            print(f"fraclap: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if isinstance(exc, ConvergenceError):
            print(f"fraclap: convergence failure: {exc}", file=sys.stderr)
            return EXIT_CONVERGENCE
        label = "" if isinstance(exc, AmbiguousRegimeError) else "verification failure: "
        print(f"fraclap: {label}{exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    _write_json(outdir / "manifest.json", {
        "command": args.command,
        "config": vars(args),
        **payload,
        "library_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    })
    return 0 if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
