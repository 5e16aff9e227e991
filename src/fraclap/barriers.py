"""Explicit super/sub-solution candidates and their numerical verification.

Every comparison object the solver machinery needs is a linear combination of
three primitive shapes: the distance-power profile d^tau (collar singular), the
interval indicator and the torsion function (operator value exactly -1).  A
BarrierSpec is such a combination together with the fractional order.  The
power profile's operator values come from the semi-analytic path in
`fraclap.operator`; the indicator's and the torsion's are closed forms.  This
module imports nothing from `fraclap.grid`: verification and globalization
never depend on a grid.

Every amplitude (mu on the collar, lambda on the torsion) is the first rung
of a fixed ladder at which the barrier inequality holds.  `_margins`
computes the margins of a whole ladder at once, one row per rung, elementwise
exactly as `verify_barrier` computes one candidate's, from the p-free
normalization s = `_scale`(xs, tau) and values already divided by it, and
`_first_pass` picks the first passing row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, VerificationError
from .exponents import (
    ProblemParams,
    RegimeReport,
    RegimeZone,
    classify_zone6,
    find_tau0,
    special_window,
)
from .operator import DistanceProfile, eval_on_power, tail_coefficient

__all__ = [
    "BarrierSpec",
    "BarrierReport",
    "PowerTerm",
    "IndicatorTerm",
    "TorsionTerm",
    "make_existence_pair",
    "make_special_pair",
    "make_nonexistence_family",
    "nonexistence_search",
    "verify_barrier",
    "torsion",
    "globalize_pair",
    "collar_points",
]

MU_SWEEP_RANGE = 20  # geometric ladder mu in {2^k}, k in [-MU_SWEEP_RANGE, MU_SWEEP_RANGE]
TOL_REL = 1e-6  # relative slack of every sign verdict, for quadrature noise


def collar_points() -> np.ndarray:
    """64 geometrically spaced boundary distances in [1e-5, 0.1], the collar
    width of every `DistanceProfile` built here, used for collar verification."""
    return np.geomspace(1e-5, 0.1, 64)


# ---------------------------------------------------------------------------
# primitive terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerTerm:
    """d^tau on the collar, positive C^2 continuation inside, zero outside."""

    profile: DistanceProfile

    @property
    def tau(self) -> float:
        return self.profile.tau

    def value(self, x):
        return self.profile.value(x)

    def op(self, x, alpha: float):
        return eval_on_power(self.profile.tau, alpha, x)

    def describe(self) -> dict:
        return {"kind": "power_distance", "tau": self.profile.tau, "delta": self.profile.delta}


@dataclass(frozen=True)
class IndicatorTerm:
    """Characteristic function of the interval; operator known in closed form."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return ((x > 0.0) & (x < 1.0)).astype(float)

    def op(self, x, alpha: float):
        return tail_coefficient(x, alpha)

    def describe(self) -> dict:
        return {"kind": "indicator"}


@dataclass(frozen=True)
class TorsionTerm:
    """Torsion function V, the solution of (operator) V = -1 with zero
    exterior, in closed form (Getoor 1961; Dyda 2012):

        V(x) = -(sin(pi alpha) / pi) (x (1 - x))^alpha   on (0, 1),

    zero outside.  It is negative inside for every alpha in (0, 1) and
    depends on x only through d = min(x, 1 - x), so it is mirror-symmetric.
    """

    alpha: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        d = np.maximum(np.minimum(x, 1.0 - x), 0.0)
        return -(np.sin(np.pi * self.alpha) / np.pi) * (d * (1.0 - d)) ** self.alpha

    def op(self, x, alpha: float):
        if alpha != self.alpha:
            raise DomainError(f"torsion of order alpha={self.alpha} used at alpha={alpha}")
        return np.full(np.shape(x), -1.0)

    def describe(self) -> dict:
        return {"kind": "torsion", "alpha": self.alpha}


# ---------------------------------------------------------------------------
# barrier combinations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierSpec:
    """Linear combination of primitive terms for a fixed fractional order."""

    alpha: float
    terms: tuple  # of (coefficient, term) pairs

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, term in self.terms:
            out = out + c * term.value(x)
        return out

    def term_arrays(self, xs) -> list[tuple[float, np.ndarray, np.ndarray]]:
        """(coefficient, values, operator values) per term at the points xs.

        Each call evaluates every term's operator afresh; a caller that sweeps
        coefficients evaluates once and reuses the arrays."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = []
        for c, term in self.terms:
            ops = np.asarray(term.op(xs, self.alpha), dtype=float)
            out.append((c, np.asarray(term.value(xs), dtype=float), ops))
        return out

    @property
    def leading_tau(self) -> float:
        taus = [term.tau for _, term in self.terms if isinstance(term, PowerTerm)]
        return min(taus) if taus else 0.0

    def scaled(self, factor: float) -> "BarrierSpec":
        return BarrierSpec(self.alpha, tuple((c * factor, t) for c, t in self.terms))

    def with_term(self, coef: float, term) -> "BarrierSpec":
        return BarrierSpec(self.alpha, self.terms + ((coef, term),))

    def describe(self) -> list:
        return [{"coefficient": c, **t.describe()} for c, t in self.terms]


@dataclass
class BarrierReport:
    """Outcome of a sign verification over a set of points."""

    role: str
    passed: bool
    worst_margin: float
    worst_x: float
    nodes: np.ndarray
    margins: np.ndarray
    mu: float | None = None
    zone: str | None = None


def _signed_power(u: np.ndarray, p: float) -> np.ndarray:
    return np.sign(u) * np.abs(u) ** p


def _combine(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Values and operator values of the sum of c * term, summed left to right."""
    return sum(c * v for c, v, _ in arrays), sum(c * o for c, _, o in arrays)


def _scale(xs, tau: float) -> np.ndarray:
    """s = d^tau at the points xs: the part of the `_margins` normalization
    that does not depend on p."""
    return np.minimum(xs, 1.0 - xs) ** tau


def _margins(s, scaled_vals, ops, f_vals, p: float) -> np.ndarray:
    """Super-signed margins (op + |v|^(p-1) v - f) / d^(tau*p), from
    s = `_scale`(xs, tau) and the values already divided by it,
    scaled_vals = v / s; one row per candidate when scaled_vals and ops hold
    one row each.

    d^(tau*p) is the natural magnitude of the residual's leading terms.  It
    is applied as (op - f) / s^p + |v/s|^(p-1) v/s, because |v|^p and
    d^(tau*p) each overflow once |tau*p| passes about 60 at the deepest
    collar point, and their ratio would be NaN; s^p may still overflow,
    which sends the (then negligible) first term to 0.  A ladder of
    amplitudes may overflow |v/s|^p in rows past the first that passes; an
    overflowed row is +-inf, which is still its sign verdict.  A caller that
    checks one ladder at many p forms s, v / s and the operator rows once.
    """
    with np.errstate(over="ignore"):
        return (ops - f_vals) / s**p + _signed_power(scaled_vals, p)


def _passes(margins: np.ndarray):
    """Verdict per row: no margin below -TOL_REL (slack for quadrature noise)."""
    return margins.min(axis=-1) >= -TOL_REL


def _report(xs: np.ndarray, margins: np.ndarray, role: str) -> BarrierReport:
    """Report of one row of margins, already signed for `role`."""
    worst = int(np.argmin(margins))
    return BarrierReport(
        role=role,
        passed=bool(_passes(margins)),
        worst_margin=float(margins[worst]),
        worst_x=float(xs[worst]),
        nodes=xs,
        margins=margins,
    )


def _first_pass(ladder, margins, xs, role: str, what: str):
    """(amplitude, report) of the first rung of `ladder` whose row of
    super-signed `margins` verifies as `role` (rows are negated for "sub").
    Raises VerificationError naming the last rung's worst margin if none does.
    """
    if role == "sub":
        margins = -margins
    ok = _passes(margins)
    if not ok.any():
        last = _report(xs, margins[-1], role)
        raise VerificationError(
            f"no admissible amplitude found for {what} "
            f"(worst margin {last.worst_margin:.3e} at x={last.worst_x:.3e})"
        )
    i = int(np.argmax(ok))
    report = _report(xs, margins[i], role)
    report.mu = float(ladder[i])
    return ladder[i], report


def verify_barrier(
    b: BarrierSpec,
    params: ProblemParams,
    role: str,
    collar_nodes,
) -> BarrierReport:
    """Check the defining inequality of a super- ("super") or sub-solution
    ("sub") at the given interior points.

    The residual op(b) + |b|^(p-1) b - f is normalized by d^(tau*p), the
    natural magnitude of its leading terms, and the verdict allows a relative
    slack TOL_REL for quadrature noise.  Always returns a report; it never
    raises on failure.
    """
    if role not in ("super", "sub"):
        raise DomainError(f"role must be 'super' or 'sub', got {role!r}")
    xs = np.atleast_1d(np.asarray(collar_nodes, dtype=float))
    vals, ops = _combine(b.term_arrays(xs))
    s = _scale(xs, b.leading_tau)
    margins = _margins(s, vals / s, ops, params.source.value(xs), params.p)
    return _report(xs, margins if role == "super" else -margins, role)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def make_existence_pair(
    params: ProblemParams, regime: RegimeReport
) -> tuple[BarrierSpec, BarrierSpec]:
    """Ordered (super, sub) pair mu_bar * V_tau >= mu * V_tau on the collar.

    tau is the regime's boundary exponent, `regime.predicted_exponent` of an
    interaction, weak-source or strong-source zone of `classify_regime`; any
    other zone raises DomainError.  The amplitudes come from one evaluation
    of the geometric ladder mu = 2^k on the `collar_points`: the
    super-solution takes the smallest verifying rung, the sub-solution the
    largest.
    """
    if regime.zone not in (
        RegimeZone.EXISTENCE_INTERACTION, RegimeZone.WEAK_SOURCE, RegimeZone.STRONG_SOURCE
    ):
        raise DomainError(f"no existence barrier construction for zone {regime.zone}")
    tau = regime.predicted_exponent
    base = BarrierSpec(params.alpha, ((1.0, PowerTerm(DistanceProfile(tau=tau))),))
    xs = collar_points()
    ((_, vals, ops),) = base.term_arrays(xs)
    f_vals = params.source.value(xs)
    s = _scale(xs, tau)
    mus = [2.0**k for k in range(-MU_SWEEP_RANGE, MU_SWEEP_RANGE + 1)]
    col = np.array(mus)[:, None]
    margins = _margins(s, col * vals / s, col * ops, f_vals, params.p)
    mu_super, _ = _first_pass(mus, margins, xs, "super", "super-solution")
    mu_sub, _ = _first_pass(mus[::-1], margins[::-1], xs, "sub", "sub-solution")
    if mu_super < 2.0 * mu_sub:
        mu_super = 2.0 * mu_sub
        if not _passes(_margins(s, mu_super * vals / s, mu_super * ops, f_vals, params.p)):
            raise VerificationError("super-solution amplitude lost admissibility when re-ordered")
    return base.scaled(mu_super), base.scaled(mu_sub)


def make_special_pair(params: ProblemParams, t: float) -> tuple[BarrierSpec, BarrierSpec]:
    """Pair t*V_tau0 - mu*V_tau1 for the critical-rate family, mu growing from
    the super- to the sub-solution (the residual is strictly decreasing in mu,
    so the two amplitudes bracket the crossover).

    tau1 = min(tau0 * p + 2*alpha, 0); at tau1 = 0 the second term degenerates
    to the interval indicator.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"family parameter t={t!r} must be positive and finite")
    window = special_window(params)
    if window is None or not window[0] < params.p < window[1]:
        raise DomainError(f"p={params.p} outside the special-existence window {window}")
    tau0 = find_tau0(params.alpha).tau0
    tau1 = min(tau0 * params.p + 2.0 * params.alpha, 0.0)
    lead = PowerTerm(DistanceProfile(tau=tau0))
    second = IndicatorTerm() if tau1 == 0.0 else PowerTerm(DistanceProfile(tau=tau1))
    xs = collar_points()
    probe = BarrierSpec(params.alpha, ((t, lead), (-1.0, second)))
    (_, lead_vals, lead_ops), (_, sec_vals, sec_ops) = probe.term_arrays(xs)
    scale = t**params.p
    mus = [0.0] + [scale * 2.0**k for k in range(-MU_SWEEP_RANGE, MU_SWEEP_RANGE + 1)]
    col = np.array(mus)[:, None]
    s = _scale(xs, tau0)
    margins = _margins(
        s, (t * lead_vals - col * sec_vals) / s, t * lead_ops - col * sec_ops,
        params.source.value(xs), params.p,
    )
    mu1, _ = _first_pass(mus, margins, xs, "super", "critical-family super-solution")
    mu2, _ = _first_pass(mus[1:], margins[1:], xs, "sub", "critical-family sub-solution")
    if not mu2 > mu1:
        raise VerificationError(
            f"critical-family amplitudes failed to order: mu_super={mu1}, mu_sub={mu2}"
        )
    return tuple(BarrierSpec(params.alpha, ((t, lead), (-mu, second))) for mu in (mu1, mu2))


def nonexistence_search(alpha: float, t: float, tau: float):
    """Amplitude search for the rate-excluding family t*V_tau + mu*V_0.

    Of the margins, only the source values and the powers depend on the
    params; the rest is formed here, once: the operator values of V_tau and
    V_0 on the `collar_points` and 12 interior points in [0.1, 0.5],
    s = d^tau, and for each ladder sign the whole ladder's operator rows
    t*op(V_tau) + mu*op(V_0) and scaled value rows (t*V_tau + mu*V_0) / s.
    The returned
    search(params, zone, role) -> (family, report) takes the ladder
    mu = +-2^k with the sign the zone prescribes (positive for super-solution
    zones, negative for sub-solution zones), evaluates its `_margins` at
    params.p in one pass, keeps the first verifying rung and records the
    zone, role and amplitude in the report.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"family parameter t={t!r} must be positive and finite")
    # sorted and deduplicated without np.unique, which imports numpy.ma
    xs = np.array(sorted({*collar_points().tolist(), *np.linspace(0.1, 0.5, 12).tolist()}))
    power, indicator = PowerTerm(DistanceProfile(tau=tau)), IndicatorTerm()
    base = BarrierSpec(alpha, ((t, power), (1.0, indicator)))
    (_, lead_vals, lead_ops), (_, ind_vals, ind_ops) = base.term_arrays(xs)
    s = _scale(xs, tau)
    ladders = {}
    for sign in (1.0, -1.0):
        mus = [sign * 2.0**k for k in range(-MU_SWEEP_RANGE, MU_SWEEP_RANGE + 1)]
        col = np.array(mus)[:, None]
        ladders[sign] = (mus, (t * lead_vals + col * ind_vals) / s, t * lead_ops + col * ind_ops)

    def search(params: ProblemParams, zone: int, role: str) -> tuple[BarrierSpec, BarrierReport]:
        mus, scaled_vals, ops = ladders[1.0 if role == "super" else -1.0]
        margins = _margins(s, scaled_vals, ops, params.source.value(xs), params.p)
        mu, report = _first_pass(mus, margins, xs, role, f"nonexistence family in zone {zone}")
        report.zone = f"zone{zone}"
        return BarrierSpec(alpha, ((t, power), (mu, indicator))), report

    return search


def make_nonexistence_family(
    params: ProblemParams, t: float, tau: float
) -> tuple[BarrierSpec, BarrierReport]:
    """One member t*V_tau + mu(t)*V_0 of the rate-excluding family, with mu
    from `nonexistence_search` over collar and interior points together."""
    zone, role = classify_zone6(params.p, tau, params.alpha)
    search = nonexistence_search(params.alpha, t, tau)
    return search(params, zone, role)


def torsion(alpha: float) -> TorsionTerm:
    """The closed-form torsion term of order alpha (operator value -1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"torsion needs alpha in (0, 1), got {alpha}")
    return TorsionTerm(float(alpha))


def globalize_pair(
    pair: tuple[BarrierSpec, BarrierSpec],
    params: ProblemParams,
    nodes,
) -> tuple[BarrierSpec, BarrierSpec]:
    """Extend a collar-verified pair to all of the interval by adding
    +-lambda times the torsion function V = `torsion`(params.alpha)
    (operator value -1), with the first lambda in {0, 1, 2, 4, ..., 2^38} at
    which both inequalities hold at every supplied node.  Each role's margins
    are evaluated for the whole ladder at once.

    The torsion term is negative, so the super-solution gains -lambda * V
    (pointwise increase, operator gain +lambda) and the sub-solution gains
    +lambda * V; ordering is preserved automatically.
    """
    sup, sub = pair
    xs = np.atleast_1d(np.asarray(nodes, dtype=float))
    f_vals = params.source.value(xs)
    tor = torsion(params.alpha)
    tor_vals, tor_ops = tor.value(xs), tor.op(xs, params.alpha)

    # the constructors give sup and sub the same term objects: evaluate each once
    terms = {id(term): term for _, term in sup.terms + sub.terms}
    shared = BarrierSpec(sup.alpha, tuple((1.0, term) for term in terms.values()))
    evaluated = {key: (v, o) for key, (_, v, o) in zip(terms, shared.term_arrays(xs))}
    lams = [0.0] + [2.0**k for k in range(39)]
    rows = []
    for spec, sign in ((sup, -1.0), (sub, 1.0)):
        vals, ops = _combine([(c, *evaluated[id(term)]) for c, term in spec.terms])
        col = sign * np.array(lams)[:, None]
        s = _scale(xs, spec.leading_tau)
        rows.append(_margins(s, (vals + col * tor_vals) / s, ops + col * tor_ops, f_vals, params.p))
    sup_m, sub_m = rows[0], -rows[1]
    ok = _passes(sup_m) & _passes(sub_m)
    if not ok.any():
        raise VerificationError(
            f"global extension failed: worst margins super={sup_m[-1].min():.3e}, "
            f"sub={sub_m[-1].min():.3e}"
        )
    lam = lams[int(np.argmax(ok))]
    if not lam:
        return sup, sub
    return sup.with_term(-lam, tor), sub.with_term(lam, tor)
