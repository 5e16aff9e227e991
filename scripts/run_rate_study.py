"""Reproduce the three boundary blow-up rates at desk scale.

Runs the interaction, weak-source and strong-source configurations through
`fraclap blowup` on one graded grid and prints each fitted boundary exponent
against the predicted rate -2a/(p-1), gamma+2a or gamma/p, with the run's
block sweeps (all levels iterate as one block, so this is the largest level
`iterations`), its globalization lambda and the scale c of its
sub-solution W = c sub + lambda V, and whether the profile lies between its
lower bound (W, or the zero start below a full-depth level) and U, read from
the manifest.  Each case writes its CLI output (profiles and manifest) into
--out/<case>, and a summary CSV goes to --out/summary.csv.  A fit outside
the CLI's tolerance or a failed sandwich (exit code 4) is reported like any
other result.
"""

import argparse
import json
import time
from pathlib import Path

from fraclap import cli

SHELLS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

# case: (problem flags, fit window); the source-driven cases append a
# full-depth shell
CASES = {
    "interaction": (["--p", "2.5"], (10 / SHELLS[-1], 0.02)),
    "weak_source": (["--p", "4", "--gamma", "-1.2", "--kappa-f", "0.25", "--full-level"],
                    (1.5e-3, 1.5e-2)),
    "strong_source": (["--p", "4", "--gamma", "-1.8", "--kappa-f", "1", "--full-level"],
                      (3e-4, 2e-3)),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=2001)
    ap.add_argument("--grading", type=float, default=3.0)
    ap.add_argument("--out", default="rate-study")
    args = ap.parse_args()

    out = Path(args.out)
    rows = []
    for name, (flags, (lo, hi)) in CASES.items():
        # a failed run writes no manifest: remove one left by an earlier run
        manifest = out / name / "manifest.json"
        manifest.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = cli.main([
            "blowup", "--alpha", repr(args.alpha), *flags, "--n", str(args.n),
            "--grading", repr(args.grading), "--levels", ",".join(map(str, SHELLS)),
            "--max-iters", "40000", "--sup-tol", "1e-10",
            "--fit-lo", repr(lo), "--fit-hi", repr(hi), "--out", str(out / name),
        ])
        elapsed = time.perf_counter() - t0
        if code not in (0, cli.EXIT_VERIFICATION) or not manifest.exists():
            raise SystemExit(f"{name}: fraclap blowup exited {code}, see {out / name}")
        m = json.loads(manifest.read_text())
        predicted, fitted = m["predicted_exponent"], m["fit"]["exponent"]
        rel = abs(fitted - predicted) / abs(predicted)
        sweeps = max(lev["iterations"] for lev in m["levels"])
        lam, scale = m["globalization"]["lambda"], m["globalization"]["sub_scale"]
        sandwich, lower = m["sandwich_ok"], m["lower_bound"]
        rows.append((name, predicted, fitted, rel, sweeps, lam, scale, sandwich, lower, elapsed))
        print(
            f"{name:14s} predicted {predicted:+.4f}  fitted {fitted:+.4f} "
            f"({rel:.2%})  monotone={m['monotone_in_levels']}  sweeps {sweeps:5d}  "
            f"lambda {lam:g}  c {scale:.4f}  sandwich={sandwich} ({lower})  {elapsed:5.1f}s"
        )

    with (out / "summary.csv").open("w") as fh:
        fh.write("case,predicted,fitted,relative_error,sweeps,lambda,sub_scale,sandwich_ok,"
                 "lower_bound,seconds\n")
        for row in rows:
            fh.write(",".join(repr(v) if not isinstance(v, str) else v for v in row) + "\n")
    print(f"profiles and summary written to {out}/")


if __name__ == "__main__":
    main()
