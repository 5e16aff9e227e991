"""Reproduce the three boundary blow-up rates at desk scale.

Runs the interaction, weak-source and strong-source configurations on a shared
graded grid, fits the boundary exponents, and prints a comparison against the
predicted rates -2a/(p-1), gamma+2a and gamma/p.  Writes per-case profiles and
a summary CSV next to --out.

The operator is assembled once and passed to all three solves, so its
(n+1)/2 x n left-half rows (16 MB at n = 2001) stay alive across the cases,
beside each case's factorization; the `fraclap blowup` command assembles
inside `solve_blowup`, which folds the operator and releases the rows before
factoring, so its peak memory is lower than this script's.
"""

import argparse
import time
from pathlib import Path

from fraclap.exponents import ProblemParams, classify_regime
from fraclap.fields import SourceField
from fraclap.grid import Grid1D
from fraclap.operator import assemble
from fraclap.rates import fit_exponent
from fraclap.solvers import IterationConfig, solve_blowup

SHELLS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=2001)
    ap.add_argument("--grading", type=float, default=3.0)
    ap.add_argument("--out", default="rate-study")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = Grid1D.graded(args.n, args.grading, include=[1.0 / s for s in SHELLS])
    op = assemble(grid, args.alpha)  # the three cases share the grid and alpha
    full = int(2.0 / grid.min_spacing)

    cases = [
        ("interaction", ProblemParams(args.alpha, 2.5), SHELLS, (10 / SHELLS[-1], 0.02)),
        (
            "weak_source",
            ProblemParams(args.alpha, 4.0, source=SourceField.power_collar(-1.2, kappa_f=0.25)),
            SHELLS + (full,),
            (1.5e-3, 1.5e-2),
        ),
        (
            "strong_source",
            ProblemParams(args.alpha, 4.0, source=SourceField.power_collar(-1.8, kappa_f=1.0)),
            SHELLS + (full,),
            (3e-4, 2e-3),
        ),
    ]

    rows = []
    for name, params, levels, window in cases:
        cfg = IterationConfig(
            max_iters=40000, sup_tol=1e-10, exhaustion_levels=levels
        )
        t0 = time.perf_counter()
        res = solve_blowup(params, grid, cfg, op=op)
        fit = fit_exponent(res.final, window)
        predicted = classify_regime(params).predicted_exponent
        elapsed = time.perf_counter() - t0
        res.final.to_csv(out / f"{name}.csv")
        rel = abs(fit.exponent - predicted) / abs(predicted)
        rows.append((name, predicted, fit.exponent, rel, elapsed))
        print(
            f"{name:14s} predicted {predicted:+.4f}  fitted {fit.exponent:+.4f} "
            f"({rel:.2%})  monotone={res.monotone_in_levels}  {elapsed:5.1f}s"
        )

    with (out / "summary.csv").open("w") as fh:
        fh.write("case,predicted,fitted,relative_error,seconds\n")
        for row in rows:
            fh.write(",".join(repr(v) if not isinstance(v, str) else v for v in row) + "\n")
    print(f"profiles and summary written to {out}/")


if __name__ == "__main__":
    main()
