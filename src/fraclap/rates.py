"""Boundary explosion-rate diagnostics.

Turns the liminf/limsup statements of the theory into finite-window
measurements: least-squares exponents of log u against log d over a collar
window, normalized bands u * d^(-tau), and the sign/exponent reproduction of
the barrier asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import find_tau0
from .grid import GridFunction
from .operator import eval_on_power

__all__ = ["RateFit", "Prop32Report", "fit_exponent", "check_band", "verify_prop32"]

BAND_RATIO_MAX = 100.0


@dataclass
class RateFit:
    exponent: float
    intercept: float
    r_squared: float
    window: tuple
    band: tuple
    n_points: int
    verified: bool


def _on_window(u: GridFunction, window: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(d, u) at the nodes with lo < d < hi, window = (lo, hi) with
    0 < lo < hi; fewer than 8 such nodes raise DomainError."""
    lo, hi = window
    if not 0 < lo < hi:
        raise DomainError(f"invalid window {window}")
    d = u.grid.d
    sel = (d > lo) & (d < hi)
    if np.count_nonzero(sel) < 8:
        raise DomainError(f"fewer than 8 nodes with d inside {window}")
    return d[sel], u.values[sel]


def fit_exponent(u: GridFunction, window: tuple) -> RateFit:
    """Least-squares boundary exponent of a positive grid function.

    One least-squares line through the nodes of both endpoint collars with
    lo < d < hi, window = (lo, hi): the grid is mirrored, so both collars
    share the same log d abscissae and this slope is the mean of the two
    per-collar slopes (the midpoint, if inside the window, has no partner).
    The returned band is the range of u * d^(-exponent) over the window, and
    `verified` requires a positive band minimum.
    """
    d, vals = _on_window(u, window)
    if np.any(vals <= 0.0):
        raise DomainError("fit requires positive values on the window")

    logd, logu = np.log(d), np.log(vals)
    exponent, intercept = (float(c) for c in np.polyfit(logd, logu, 1))
    pred = exponent * logd + intercept
    ss_res = float(np.sum((logu - pred) ** 2))
    ss_tot = float(np.sum((logu - logu.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)

    band_vals = vals * d ** (-exponent)
    band = (float(band_vals.min()), float(band_vals.max()))
    return RateFit(
        exponent=exponent,
        intercept=intercept,
        r_squared=r2,
        window=tuple(window),
        band=band,
        n_points=d.size,
        verified=band[0] > 0.0,
    )


def check_band(u: GridFunction, tau: float, window: tuple) -> tuple[float, float, bool]:
    """Range of u * d^(-tau) over the nodes with lo < d < hi.

    The flag is True when the minimum is positive and max/min stays below
    BAND_RATIO_MAX: the finite-window stand-in for 0 < liminf <= limsup < inf.
    """
    d, vals = _on_window(u, window)
    band = vals * d ** (-tau)
    bmin, bmax = float(band.min()), float(band.max())
    ok = bmin > 0.0 and bmax / bmin <= BAND_RATIO_MAX
    return bmin, bmax, ok


@dataclass
class Prop32Report:
    tau: float
    alpha: float
    case: str
    sign_ok: bool
    exponent: float
    expected_exponent: float | None
    exponent_ok: bool | None
    band: tuple
    bound_ok: bool | None

    @property
    def passed(self) -> bool:
        checks = [self.sign_ok]
        if self.exponent_ok is not None:
            checks.append(self.exponent_ok)
        if self.bound_ok is not None:
            checks.append(self.bound_ok)
        return all(checks)


def verify_prop32(alpha: float, tau: float) -> Prop32Report:
    """Reproduce the barrier asymptotics of the distance-power profile.

    Below the critical exponent the operator of the profile is negative with
    magnitude ~ d^(tau - 2 alpha); above it, positive with the same rate; at
    the root the leading term cancels and the magnitude is bounded by
    d^min(tau0, 2 tau0 - 2 alpha + 1).  The operator values come from the
    grid-free collar evaluation at 25 geometric distances in [1e-4, 1e-2],
    so the check is purely about the asymptotics.
    tau within 1e-8 relative of tau0 counts as the root; elsewhere the fitted
    exponent must lie within 3% of tau - 2 alpha.
    """
    if not -1.0 < tau < 0.0:
        raise DomainError(f"tau={tau} outside (-1, 0)")
    ds = np.geomspace(1e-4, 1e-2, 25)
    ops = eval_on_power(tau, alpha, ds)
    tau0 = find_tau0(alpha).tau0

    if abs(tau - tau0) <= 1e-8 * max(1.0, abs(tau0)):
        m = min(tau0, 2.0 * tau0 - 2.0 * alpha + 1.0)
        normalized = np.abs(ops) * ds ** (-m)
        # bounded means the deep half of the collar does not blow up relative
        # to the shallow half
        half = ds < np.sqrt(ds[0] * ds[-1])
        deep = float(np.max(normalized[half]))
        shallow = float(np.max(normalized[~half]))
        bound_ok = deep <= 4.0 * shallow
        return Prop32Report(
            tau=tau, alpha=alpha, case="iii", sign_ok=True,
            exponent=float("nan"), expected_exponent=None, exponent_ok=None,
            band=(float(normalized.min()), float(normalized.max())),
            bound_ok=bound_ok,
        )

    case = "i" if tau < tau0 else "ii"
    want_sign = -1.0 if case == "i" else 1.0
    sign_ok = bool(np.all(np.sign(ops) == want_sign))
    slope = float(np.polyfit(np.log(ds), np.log(np.abs(ops)), 1)[0])
    expected = tau - 2.0 * alpha
    exponent_ok = abs(slope - expected) <= 0.03 * abs(expected)
    normalized = np.abs(ops) * ds ** (-expected)
    return Prop32Report(
        tau=tau, alpha=alpha, case=case, sign_ok=sign_ok,
        exponent=slope, expected_exponent=expected, exponent_ok=exponent_ok,
        band=(float(normalized.min()), float(normalized.max())),
        bound_ok=None,
    )
