"""Configuration-driven command line runner.

Every operation of the library is reachable through a subcommand; each run
writes a manifest.json (full configuration echo, computed constants, fitted
exponents, pass flags) plus CSV profiles for any produced grid function.
Options may come from command-line flags or from a flat key=value file passed
with --config (flags win).  Exit codes: 0 success, 2 configuration error,
3 convergence failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .barriers import (
    classify_zone6,
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
from .exponents import ProblemParams, classify_regime, find_tau0
from .fields import SourceField
from .grid import Grid1D, GridFunction
from .operator import assemble
from .quadrature import eval_C, eval_C_derivatives
from .rates import fit_exponent, verify_prop32
from .solvers import IterationConfig, solve_blowup, solve_linear, solve_semilinear

EXIT_CONFIG, EXIT_CONVERGENCE, EXIT_VERIFICATION = 2, 3, 4


def _grid_spec(text: str) -> np.ndarray:
    """Parse lo:hi:step into an inclusive grid."""
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise DomainError(f"grid spec {text!r} is not lo:hi:step") from exc
    if step <= 0 or hi < lo:
        raise DomainError(f"grid spec {text!r} must have lo <= hi and step > 0")
    n = int(round((hi - lo) / step))
    vals = lo + step * np.arange(n + 1)
    # lo + step*k drifts by rounding: pin the end point, and a crossing of 0
    # (where the tau domain (-1, 0] ends), to their exact values
    near = 1e-9 * step
    vals[np.abs(vals - hi) <= near] = hi
    vals[np.abs(vals) <= near] = 0.0
    return vals


def _load_config(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {raw!r} is not key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _write_manifest(outdir: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["library_version"] = __version__
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "manifest.json").open("w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")


def _write_error(outdir: Path, kind: str, message: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "error.json").open("w") as fh:
        json.dump({"error": kind, "message": message}, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _source_from(args) -> SourceField:
    gamma = getattr(args, "gamma", None)
    if gamma is None:
        return SourceField.zero()
    return SourceField.power_collar(gamma, kappa_f=getattr(args, "kappa_f", 1.0))


def _build_grid(args) -> Grid1D:
    include = [1.0 / shell for shell in getattr(args, "levels", ())]
    return Grid1D.graded(args.n, args.grading, include=include)


def _levels(args, grid: Grid1D) -> tuple:
    levels = tuple(args.levels)
    if getattr(args, "full_level", False):
        levels = levels + (int(2.0 / grid.min_spacing),)
    return levels


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_ctau(args, outdir: Path) -> int:
    rows = []
    taus = _grid_spec(args.tau_grid) if args.tau_grid else [args.tau]
    if taus[0] is None:
        raise DomainError("ctau needs --tau or --tau-grid")
    for tau in taus:
        c = eval_C(float(tau), args.alpha)
        c1, c2 = eval_C_derivatives(float(tau), args.alpha)
        rows.append((float(tau), c, c1, c2))
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "ctau.csv").open("w") as fh:
        fh.write("tau,C,C1,C2\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    _write_manifest(
        outdir,
        {
            "command": "ctau",
            "config": _echo(args),
            "n_points": len(rows),
            "C_first": rows[0][1],
            "C_last": rows[-1][1],
            "convex_everywhere": bool(all(r[3] > 0 for r in rows)),
        },
    )
    return 0


def cmd_tau0(args, outdir: Path) -> int:
    kc = find_tau0(args.alpha)
    _write_manifest(
        outdir,
        {
            "command": "tau0",
            "config": _echo(args),
            "tau0": kc.tau0,
            "p_star": kc.p_star,
            "residual": abs(eval_C(kc.tau0, args.alpha)),
        },
    )
    return 0


def cmd_regime(args, outdir: Path) -> int:
    kc = find_tau0(args.alpha)
    params = ProblemParams(args.alpha, args.p, source=_source_from(args))
    report = classify_regime(params, gamma=args.gamma, tau=args.tau)
    _write_manifest(
        outdir,
        {
            "command": "regime",
            "config": _echo(args),
            "tau0": kc.tau0,
            "p_star": kc.p_star,
            **report.to_dict(),
        },
    )
    return 0


def cmd_solve(args, outdir: Path) -> int:
    source = _source_from(args)
    if source.kind == "power_collar" and source.kappa_f < 0:
        raise DomainError("solve expects a nonnegative source")
    params = ProblemParams(args.alpha, args.p, source=source)
    grid = _build_grid(args)
    op = assemble(grid, args.alpha)
    f_vals = source.value(grid.nodes)
    sub = GridFunction.zeros(grid)
    super_ = solve_linear(op, 0.0, f_vals)
    cfg = IterationConfig(max_iters=args.max_iters, sup_tol=args.sup_tol)
    u, trace = solve_semilinear(params, op, sub, super_, cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    u.to_csv(outdir / "solution.csv")
    _write_manifest(
        outdir,
        {
            "command": "solve",
            "config": _echo(args),
            "trace": trace.to_dict(),
            "sup_norm": float(np.max(np.abs(u.values))),
            "profiles": ["solution.csv"],
        },
    )
    return 0


def cmd_blowup(args, outdir: Path) -> int:
    kc = find_tau0(args.alpha)
    params = ProblemParams(args.alpha, args.p, source=_source_from(args))
    grid = _build_grid(args)
    levels = _levels(args, grid)
    cfg = IterationConfig(
        max_iters=args.max_iters,
        sup_tol=args.sup_tol,
        exhaustion_levels=levels,
    )
    result = solve_blowup(params, grid, cfg, family_t=args.family_t)
    outdir.mkdir(parents=True, exist_ok=True)
    profiles = []
    for lev in result.levels:
        name = f"level_{lev.shell}.csv"
        lev.solution.to_csv(outdir / name)
        profiles.append(name)
    result.final.to_csv(outdir / "solution.csv")
    profiles.append("solution.csv")

    regime = classify_regime(params)
    # by default keep the window clear of the deepest imposed shell, where
    # the level solution is pinned to the barrier data
    fit_lo = args.fit_lo if args.fit_lo is not None else 2.5 / max(levels)
    fit_hi = args.fit_hi if args.fit_hi is not None else max(0.02, 10.0 / max(levels))
    window = (fit_lo, fit_hi)
    fit = fit_exponent(result.final, window)
    # the critical-rate family carries the root exponent, not the zone rate
    predicted = kc.tau0 if args.family_t is not None else regime.predicted_exponent
    fit_ok = (
        predicted is not None
        and abs(fit.exponent - predicted) <= args.fit_tol * abs(predicted)
    )
    _write_manifest(
        outdir,
        {
            "command": "blowup",
            "config": _echo(args),
            "tau0": kc.tau0,
            "p_star": kc.p_star,
            "zone": regime.zone.value,
            "predicted_exponent": predicted,
            "fit": fit.to_dict(),
            "fit_within_tolerance": bool(fit_ok),
            "monotone_in_levels": result.monotone_in_levels,
            "sandwich_ok": result.sandwich_ok,
            "positive_on_final_shell": bool(
                np.all(result.final.values[result.final_free] > 0)
            ),
            "levels": [lev.trace.to_dict() | {"shell": lev.shell} for lev in result.levels],
            "profiles": profiles,
        },
    )
    return 0 if fit_ok else EXIT_VERIFICATION


def cmd_verify_barriers(args, outdir: Path) -> int:
    if args.tau is not None and args.family_t is None:
        raise DomainError("verify-barriers --tau selects a nonexistence family member: "
                          "it needs --family-t")
    params = ProblemParams(args.alpha, args.p, source=_source_from(args))
    if args.tau is not None:
        fam, report = make_nonexistence_family(params, args.family_t, args.tau)
        payload = {"family": fam.describe(), "report": json.loads(report.to_json())}
        ok = report.passed
    else:
        if args.family_t is not None:
            sup, sub = make_special_pair(params, args.family_t)
            payload = {}
        else:
            regime = classify_regime(params)
            sup, sub = make_existence_pair(params, regime)
            payload = {"zone": regime.zone.value}
        r_sup = verify_barrier(sup, params, "super", collar_points())
        r_sub = verify_barrier(sub, params, "sub", collar_points())
        payload.update(
            super=json.loads(r_sup.to_json()),
            sub=json.loads(r_sub.to_json()),
            super_terms=sup.describe(),
            sub_terms=sub.describe(),
        )
        ok = r_sup.passed and r_sub.passed
    _write_manifest(
        outdir,
        {"command": "verify-barriers", "config": _echo(args), "passed": bool(ok), **payload},
    )
    return 0 if ok else EXIT_VERIFICATION


def cmd_verify_prop32(args, outdir: Path) -> int:
    report = verify_prop32(args.alpha, args.tau)
    _write_manifest(
        outdir,
        {"command": "verify-prop32", "config": _echo(args), **report.to_dict()},
    )
    return 0 if report.passed else EXIT_VERIFICATION


def cmd_sweep(args, outdir: Path) -> int:
    taus = [float(tau) for tau in _grid_spec(args.tau_grid)]
    outside = [tau for tau in taus if not -1.0 < tau <= 0.0]
    if outside:
        # the family's profile d^tau exists only there: no row could verify
        raise DomainError(f"sweep tau={outside[0]!r} outside (-1, 0]")
    if not args.family_t > 0:
        raise DomainError(f"sweep --family-t must be positive, got {args.family_t!r}")
    kc = find_tau0(args.alpha)
    ps = [float(p) for p in _grid_spec(args.p_grid)]
    rows = []
    for tau in taus:
        # the family's operator values depend on tau alone: evaluated for the
        # first p that reaches the amplitude search, then shared by every p
        search = None
        for p in ps:
            params = ProblemParams(args.alpha, p)
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
            except (DomainError, AmbiguousRegimeError) as exc:
                row.update(zone="boundary", role="", mu=float("nan"), passed=False, note=str(exc))
                continue
            row.update(zone=f"zone{zone}", role=role)
            try:
                if search is None:
                    search = nonexistence_search(args.alpha, args.family_t, tau)
                fam, report = search(params, zone, role)
                row.update(mu=fam.terms[1][0], passed=bool(report.passed), note="")
            except (VerificationError, DomainError) as exc:
                row.update(mu=float("nan"), passed=False, note=str(exc))
    rows.sort(key=lambda r: (r["p"], r["tau"]))
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "zone_map.csv").open("w") as fh:
        fh.write("p,tau,zone,role,mu,passed,regime,predicted_exponent,note\n")
        for r in rows:
            fh.write(
                f'{r["p"]!r},{r["tau"]!r},{r["zone"]},{r["role"]},{r["mu"]!r},'
                f'{r["passed"]},{r["regime"]},{r["predicted_exponent"]},"{r["note"]}"\n'
            )
    n_passed = sum(1 for r in rows if r["passed"])
    _write_manifest(
        outdir,
        {
            "command": "sweep",
            "config": _echo(args),
            "tau0": kc.tau0,
            "p_star": kc.p_star,
            "n_points": len(rows),
            "n_passed": n_passed,
            "outputs": ["zone_map.csv"],
        },
    )
    return 0


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--out", default="fraclap-out", help="output directory")
    sp.add_argument("--config", default=None, help="flat key=value config file")


def _add_alpha(sp):
    sp.add_argument("--alpha", type=float, default=None)


def _add_tau(sp):
    sp.add_argument("--tau", type=float, default=None)


def _add_tau_grid(sp):
    sp.add_argument("--tau-grid", default=None, help="lo:hi:step")


def _add_problem(sp):
    _add_alpha(sp)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None, help="source exponent (power collar)")
    sp.add_argument("--kappa-f", type=float, default=1.0, help="source amplitude")


def _add_solver(sp):
    sp.add_argument("--n", type=int, default=1001, help="interior grid nodes")
    sp.add_argument("--grading", type=float, default=3.0)
    sp.add_argument("--max-iters", type=int, default=20000)
    sp.add_argument("--sup-tol", type=float, default=1e-9)


def _add_blowup(sp):
    sp.add_argument(
        "--levels",
        type=lambda s: tuple(int(v) for v in s.split(",")),
        default=(8, 16, 32, 64, 128),
    )
    sp.add_argument("--full-level", action="store_true",
                    help="append a shell below grid resolution (needs f > 0)")
    sp.add_argument("--family-t", type=float, default=None,
                    help="critical-rate family parameter t")
    sp.add_argument("--fit-lo", type=float, default=None,
                    help="fit window start (default: 2.5 / deepest shell)")
    sp.add_argument("--fit-hi", type=float, default=None,
                    help="fit window end (default: max(0.02, 10 / deepest shell))")
    sp.add_argument("--fit-tol", type=float, default=0.05)


def _add_family_t(sp):
    sp.add_argument("--family-t", type=float, default=None)


def _add_sweep(sp):
    sp.add_argument("--p-grid", default=None, help="lo:hi:step")
    _add_tau_grid(sp)
    sp.add_argument("--family-t", type=float, default=1.0)


# name: (handler, help, option adders after --out/--config, required options)
COMMANDS = {
    "ctau": (cmd_ctau, "kernel constant C and its derivatives",
             (_add_alpha, _add_tau, _add_tau_grid), ("alpha",)),
    "tau0": (cmd_tau0, "critical exponent tau0 and p*", (_add_alpha,), ("alpha",)),
    "regime": (cmd_regime, "classify parameters against the existence/nonexistence zones",
               (_add_problem, _add_tau), ("alpha", "p")),
    "solve": (cmd_solve, "bounded monotone semilinear solve",
              (_add_problem, _add_solver), ("alpha", "p")),
    "blowup": (cmd_blowup, "boundary blow-up solve by exhaustion",
               (_add_problem, _add_solver, _add_blowup), ("alpha", "p")),
    "verify-barriers": (cmd_verify_barriers, "verify super/sub-solution constructions",
                        (_add_problem, _add_tau, _add_family_t), ("alpha", "p")),
    "verify-prop32": (cmd_verify_prop32, "verify barrier asymptotics for one tau",
                      (_add_alpha, _add_tau), ("alpha", "tau")),
    "sweep": (cmd_sweep, "zone map over a (p, tau) grid",
              (_add_alpha, _add_sweep), ("alpha", "p_grid", "tau_grid")),
}


def build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, dict]:
    """The fraclap parser and its subcommand parsers by name.

    With `command` only that subcommand's parser is built, since every option
    costs argparse a formatter; without it all are, for --help and errors.
    """
    parser = argparse.ArgumentParser(
        prog="fraclap",
        description="critical constants, barriers and blow-up solves for the "
        "fractional semilinear problem on the unit interval",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (func, help_text, adders, _) in COMMANDS.items():
        if command in (None, name):
            sp = parsers[name] = sub.add_parser(name, help=help_text)
            _add_common(sp)
            for add in adders:
                add(sp)
            sp.set_defaults(func=func)
    return parser, parsers


def _switch(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, parsers = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = _load_config(args.config)
        except (OSError, DomainError) as exc:
            print(f"fraclap: config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        ns = vars(args)
        sp = parsers[args.command]
        # each key is cast by its option's own type (a switch reads 1/true/yes)
        casts = {a.dest: _switch if a.nargs == 0 else a.type or str for a in sp._actions}
        # argparse fills a default only where the namespace lacks the option,
        # so a second parse leaves this marker on exactly the flags not given
        unset = object()
        given = vars(sp.parse_args(argv[1:], argparse.Namespace(**dict.fromkeys(casts, unset))))
        for key, raw in overrides.items():
            if key not in ns or key not in casts:
                print(f"fraclap: config error: unknown key {key!r}", file=sys.stderr)
                return EXIT_CONFIG
            # a flag given on the command line wins over the file
            if given[key] is unset:
                try:
                    ns[key] = casts[key](raw)
                except ValueError as exc:
                    print(f"fraclap: config error: {key}={raw!r}: {exc}", file=sys.stderr)
                    return EXIT_CONFIG
        args = argparse.Namespace(**ns)
    missing = [k for k in COMMANDS[args.command][3] if getattr(args, k, None) is None]
    if missing:
        print(f"fraclap: config error: missing required option(s) {missing}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.out)
    try:
        return args.func(args, outdir)
    except (DomainError, AmbiguousRegimeError) as exc:
        _write_error(outdir, type(exc).__name__, str(exc))
        print(f"fraclap: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, DomainError) else EXIT_VERIFICATION
    except ConvergenceError as exc:
        _write_error(outdir, "ConvergenceError", str(exc))
        print(f"fraclap: convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (VerificationError, FraclapError) as exc:
        _write_error(outdir, type(exc).__name__, str(exc))
        print(f"fraclap: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
