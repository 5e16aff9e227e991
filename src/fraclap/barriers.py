"""Explicit super/sub-solution candidates and their numerical verification.

Every barrier is a linear combination of two primitive terms: the
distance-power profile d^tau (collar singular) and the interval indicator.  A
BarrierSpec is such a combination together with the fractional order.  The
power profile's operator values come from the semi-analytic path in
`fraclap.operator`, the indicator's from a closed form.  `globalize_pair`
extends a collar pair to the whole interval with the torsion function
`torsion` (operator value exactly -1, a closed form too), on the discrete
system only, so the globalized pair is a pair of nodal values.  This
module imports nothing from `fraclap.grid`: `globalize_pair` is given the
discrete system as nodes and a matrix, and the collar checks are grid-free.

Every amplitude (mu on the collar, lambda on the torsion, the scale c of
the globalized sub-solution c sub + lambda V) is the first rung of a fixed
ladder at which the barrier inequality holds; c's ladder is the fine one,
2^(j/64), read from the top down from a bound that keeps lambda, U and the
solver's sandwich range as they are, and c is then backed off by
SUB_BACKOFF.  `_margins` computes the margins of a whole ladder at once,
one row per rung, elementwise exactly as `verify_barrier` computes one
candidate's, from the p-free normalization s = `_scale`(xs, tau) and values
already divided by it; `_first_pass` picks the first passing row of a
collar ladder, `_scan` that of a globalization ladder, formed a block of
rungs at a time, and `_passes` gives every row's verdict.
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
LADDER_BLOCK = 8  # rungs of the globalization ladders whose margins are formed at once
SUB_LADDER = 64  # the sub-solution scale takes a rung c = 2^(j/SUB_LADDER), j < SUB_LADDER
SUB_BACKOFF = 0.95  # the chosen rung c backs off to max(1, SUB_BACKOFF c)


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
    # the sub role of `globalize_pair`: the scale c of W = c sub + lambda V,
    # and the rung above c's, failing or past the bound (None above the top rung)
    scale: float | None = None
    scale_limit: float | None = None


def _signed_power(u: np.ndarray, p: float) -> np.ndarray:
    return np.sign(u) * np.abs(u) ** p


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
    """Verdict per row: no margin below -TOL_REL (quadrature slack); an empty row passes."""
    return margins.min(axis=-1, initial=np.inf) >= -TOL_REL


def _report(xs: np.ndarray, margins: np.ndarray, role: str) -> BarrierReport:
    """Report of one row of margins, already signed for `role`; an empty row
    passes, with worst margin inf at x = nan."""
    if margins.size == 0:
        return BarrierReport(role, True, np.inf, np.nan, xs, margins)
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
    arrays = b.term_arrays(xs)
    vals, ops = sum(c * v for c, v, _ in arrays), sum(c * o for c, _, o in arrays)
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
        raise DomainError(f"no existence barrier construction for zone {regime.zone.value}")
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


def nonexistence_search(alpha: float, t: float, taus):
    """Amplitude searches for the rate-excluding family t*V_tau + mu*V_0,
    one per tau of the sequence `taus`, in order.

    The points are the `collar_points` and 12 interior points in [0.1, 0.5].
    This call evaluates the operator of V_tau there for every tau, in one
    `eval_on_power` call, and that of V_0 in closed form.  Of the margins,
    only the source values and the powers depend on the params; the rest of
    a tau's search is formed when the returned iterator yields it: s = d^tau,
    and for each ladder sign the whole ladder's operator rows
    t*op(V_tau) + mu*op(V_0) and scaled value rows (t*V_tau + mu*V_0) / s.
    A caller that drops each search before drawing the next holds one tau's
    ladders at a time.
    Each search(params, zone, role) -> (family, report) takes the ladder
    mu = +-2^k with the sign the zone prescribes (positive for super-solution
    zones, negative for sub-solution zones), evaluates its `_margins` at
    params.p in one pass, keeps the first verifying rung and records the
    zone, role and amplitude in the report.
    """
    if not 0.0 < t < np.inf:
        raise DomainError(f"family parameter t={t!r} must be positive and finite")
    # sorted and deduplicated without np.unique, which imports numpy.ma
    xs = np.array(sorted({*collar_points().tolist(), *np.linspace(0.1, 0.5, 12).tolist()}))
    taus = list(taus)
    indicator = IndicatorTerm()
    ind_vals, ind_ops = indicator.value(xs), indicator.op(xs, alpha)
    power_ops = eval_on_power(np.array(taus, dtype=float), alpha, xs)
    return (
        _ladder_search(alpha, t, PowerTerm(DistanceProfile(tau=tau)), xs, ops, ind_vals, ind_ops)
        for tau, ops in zip(taus, power_ops)
    )


def _ladder_search(alpha, t, power, xs, lead_ops, ind_vals, ind_ops):
    """The search of `nonexistence_search` for one power term, given its
    operator values and the indicator's at the points xs."""
    lead_vals = power.value(xs)
    s = _scale(xs, power.tau)
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
        return BarrierSpec(alpha, ((t, power), (mu, IndicatorTerm()))), report

    return search


def make_nonexistence_family(
    params: ProblemParams, t: float, tau: float
) -> tuple[BarrierSpec, BarrierReport]:
    """One member t*V_tau + mu(t)*V_0 of the rate-excluding family, with mu
    from `nonexistence_search` over collar and interior points together."""
    zone, role = classify_zone6(params.p, tau, params.alpha)
    (search,) = nonexistence_search(params.alpha, t, [tau])
    return search(params, zone, role)


def torsion(alpha: float, x) -> np.ndarray:
    """The torsion function V at the points x, the solution of
    (operator) V = -1 with zero exterior, in closed form (Getoor 1961;
    Dyda 2012):

        V(x) = -(sin(pi alpha) / pi) (x (1 - x))^alpha   on (0, 1),

    zero outside.  It is negative inside for every alpha in (0, 1) and
    depends on x only through d = min(x, 1 - x), so it is mirror-symmetric.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"torsion needs alpha in (0, 1), got {alpha}")
    x = np.asarray(x, dtype=float)
    d = np.maximum(np.minimum(x, 1.0 - x), 0.0)
    return -(np.sin(np.pi * alpha) / np.pi) * (d * (1.0 - d)) ** alpha


def globalize_pair(
    pair: tuple[BarrierSpec, BarrierSpec],
    params: ProblemParams,
    nodes,
    A: np.ndarray,
    sub_rows: int,
    super_rows: int,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[BarrierReport, BarrierReport]]:
    """Extend a collar-verified pair to all of the interval by adding
    +-lambda V, V = `torsion`(params.alpha, nodes) < 0, with the first lambda
    in {0, 1, 2, 4, ..., 2^38} at which the pair passes on the discrete
    system, then sharpen the sub-solution at that lambda.

    A is the operator's matrix on the values at `nodes` (zero exterior),
    ordered so that the rows a level frees lead.  W = sub + lambda V must
    satisfy A W + |W|^(p-1) W <= f on the first `sub_rows` rows, and
    U = sup - lambda V the reverse on the first `super_rows` (then also with
    W imposed outside a level, as A's off-diagonals are <= 0 and U >= W).
    The operator values are three matvecs and each rung's `_margins` are
    elementwise; both ladders are scanned by `_scan`, on the rows each role
    checks.  With lambda and U fixed, W becomes W(c) = c sub + lambda V.
    c is the top rung of 2^(j/SUB_LADDER), j < SUB_LADDER, whose margins
    pass among those up to c_max, the largest c for which W(c) <= U and
    |W(c)| <= max(|W|, |U|) at every node; rung 0, c = 1, is W itself.  c
    then backs off to max(1, SUB_BACKOFF c) and is checked once more,
    margins, order and bound in floating point, and c = 1 is kept if that
    check fails.  So W(c) passes on the same rows, W(c) <= U still, and the
    sandwich range max(|W|, |U|) that sets the solver's shift is unchanged
    at every node.  A role checked on no row keeps c = 1.
    Returns the values (U, W) at the nodes and the (super, sub) reports on
    the rows checked, of the chosen lambda and, for the sub role, of W at
    its scale, each with mu = lambda; the sub report also records c and
    the rung above c's (scale, scale_limit; None above the top rung).  A
    role checked on no row has worst margin inf at x = nan.  If no lambda
    passes, VerificationError names a failing role, its worst margin on the
    last rung and its d.
    """
    sup, sub = pair
    x = np.asarray(nodes, dtype=float)
    tor = torsion(params.alpha, x)
    tor_ops = A[: max(sub_rows, super_rows)] @ tor
    sup_vals, sub_vals = sup.value(x), sub.value(x)
    sub_ops = A[:sub_rows] @ sub_vals

    def family(spec, rows, vals, ops, step, step_ops):
        """Super-signed margins of the candidates vals + r step (operator
        values ops + r step_ops) on the first `rows` rows, one row per rung
        of the column r."""
        s, f_vals = _scale(x[:rows], spec.leading_tau), params.source.value(x[:rows])
        vals, ops, step, step_ops = vals[:rows], ops[:rows], step[:rows], step_ops[:rows]
        return lambda r: _margins(s, (vals + r * step) / s, ops + r * step_ops, f_vals, params.p)

    sup_of = family(sup, super_rows, sup_vals, A[:super_rows] @ sup_vals, tor, tor_ops)
    sub_of = family(sub, sub_rows, sub_vals, sub_ops, tor, tor_ops)
    lams = [0.0] + [2.0**k for k in range(39)]
    lam, rows = _scan(lams, lambda r: (sup_of(-r), -sub_of(r)))
    if lam is None:
        role, m = ("sub", rows[1]) if not _passes(rows[1]) else ("super", rows[0])
        last = _report(x[: m.size], m, role)
        raise VerificationError(
            f"global extension failed: the {role}-solution fails the discrete check for every "
            f"lambda (worst margin {last.worst_margin:.3e} at d={last.worst_x:.3e})"
        )
    reports = [_report(x[: m.size], m, role) for m, role in zip(rows, ("super", "sub"))]
    U, W = sup_vals - lam * tor, sub_vals + lam * tor
    c, limit = 1.0, None  # a sub role checked on no row keeps c = 1
    if sub_rows:
        cap = np.maximum(np.abs(W), np.abs(U))
        up, down = sub_vals > 0.0, sub_vals < 0.0
        c_max = 1.0 + min(
            np.min((U - W)[up] / sub_vals[up], initial=np.inf),
            np.min((cap + W)[down] / -sub_vals[down], initial=np.inf),
        )
        rungs = [2.0 ** (j / SUB_LADDER) for j in range(SUB_LADDER)]
        top = max(1, sum(r <= c_max for r in rungs))  # rung 0 is W: it passed with lambda
        w_of = family(sub, sub_rows, lam * tor, lam * tor_ops, sub_vals, sub_ops)
        c, _ = _scan(rungs[top - 1 :: -1], lambda r: (-w_of(r),))
        j = rungs.index(c)
        limit = rungs[j + 1] if j + 1 < SUB_LADDER else None
        c = max(1.0, SUB_BACKOFF * c)
        W_c, m = c * sub_vals + lam * tor, -w_of(c)
        if c > 1.0 and _passes(m) and np.all(W_c <= U) and np.all(np.abs(W_c) <= cap):
            W, reports[1] = W_c, _report(x[:sub_rows], m, "sub")
        else:
            c = 1.0
    for r in reports:
        r.mu = lam
    reports[1].scale, reports[1].scale_limit = c, limit
    return (U, W), tuple(reports)


def _scan(ladder, margins_of):
    """(rung, rows) of the first rung of `ladder` at which every role passes.

    margins_of(col) gives each role's margins, signed for its role, at the
    column of rungs col, one row per rung; it is called on LADDER_BLOCK
    rungs at a time, up to the first block that holds a passing rung.  rows
    are copies of that rung's row per role, so no block outlives the call.
    If no rung passes, (None, the last rung's rows)."""
    for start in range(0, len(ladder), LADDER_BLOCK):
        block = ladder[start : start + LADDER_BLOCK]
        margins = margins_of(np.array(block)[:, None])
        ok = np.all([_passes(m) for m in margins], axis=0)
        if ok.any():
            i = int(np.argmax(ok))
            return block[i], [m[i].copy() for m in margins]
    return None, [m[-1].copy() for m in margins]
