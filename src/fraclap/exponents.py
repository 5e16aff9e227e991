"""Critical exponents and regime classification.

The kernel constant C is strictly convex on (-1, 0) with C(0) = -1/(2*alpha)
and C -> +inf as tau -> -1+, so it has a unique root there; its closed form
puts that root at tau0(alpha) = alpha - 1 exactly.  tau0 fixes the upper
critical power p* = 1 - 2*alpha/tau0 = (1+alpha)/(1-alpha) of the source-free
blow-up range, and together with the source growth exponent gamma it carves
the (alpha, p, gamma, tau) space into the existence / nonexistence zones that
`classify_regime` reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import AmbiguousRegimeError, DomainError
from .fields import SourceField
from .quadrature import KernelConstants

__all__ = [
    "ProblemParams",
    "RegimeZone",
    "RegimeReport",
    "find_tau0",
    "classify_regime",
    "classify_zone6",
    "special_window",
]


@dataclass(frozen=True)
class ProblemParams:
    """Equation parameters: fractional order alpha, reaction power p, source.

    The exterior data is zero; nonzero exterior data g is the source term
    `fraclap.operator.exterior_potential`(g) added to f."""

    alpha: float
    p: float
    source: SourceField = field(default_factory=SourceField.zero)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha={self.alpha} outside (0, 1)")
        if not 1.0 < self.p < float("inf"):
            raise DomainError(f"p={self.p} must be finite and exceed 1")
        if self.source.kind == "power_collar":
            self.source.validate_for(self.alpha)


class RegimeZone(enum.Enum):
    EXISTENCE_INTERACTION = "existence_interaction"
    SPECIAL_TAU0 = "special_tau0"
    NONEXISTENCE_I = "nonexistence_i"
    NONEXISTENCE_II = "nonexistence_ii"
    NONEXISTENCE_III = "nonexistence_iii"
    WEAK_SOURCE = "weak_source"
    STRONG_SOURCE = "strong_source"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class RegimeReport:
    zone: RegimeZone
    predicted_exponent: float | None = None
    notes: str = ""


def find_tau0(alpha: float) -> KernelConstants:
    """Critical constants of alpha: the root tau0 = alpha - 1 of C in (-1, 0)
    and the critical power p* = 1 - 2*alpha/tau0 = (1+alpha)/(1-alpha).

    Both are exact: C(tau) = K Gamma(1+tau) Gamma(2*alpha-tau) sin(pi(alpha-tau))
    vanishes in (-1, 0) only where sin(pi(alpha-tau)) does (see
    `fraclap.quadrature`).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    return KernelConstants(alpha=alpha, tau0=alpha - 1.0, p_star=(1.0 + alpha) / (1.0 - alpha))


BOUNDARY_RTOL = 1e-9  # relative distance at which a value ties a zone boundary


def _tie(x: float, y: float) -> bool:
    return abs(x - y) <= BOUNDARY_RTOL * max(1.0, abs(x), abs(y))


def special_window(params: ProblemParams) -> tuple[float, float] | None:
    """Open p-interval on which the tau0-rate solution family exists, or None."""
    t0 = find_tau0(params.alpha).tau0
    right = 1.0 - 2.0 * params.alpha / t0
    left = max(right + (t0 + 1.0) / t0, 1.0)
    if left >= right:
        return None
    return (left, right)


def _rate_report(zone: RegimeZone, predicted: float, tau: float | None, what: str,
                 notes: str) -> RegimeReport:
    """`zone` with its one rate d^predicted, unless tau asks for another rate."""
    if tau is None or _tie(tau, predicted):
        return RegimeReport(zone, predicted, notes)
    return RegimeReport(
        RegimeZone.UNCLASSIFIED,
        None,
        f"{what} admits only rate d^{predicted:.6g}; rate d^{tau:.6g} is excluded",
    )


def classify_regime(params: ProblemParams, tau: float | None = None) -> RegimeReport:
    """Assign (alpha, p [, gamma] [, tau]) to its existence/nonexistence zone.

    gamma is the exponent of a power-collar source on `params`; tau, when
    given, asks specifically about solutions with boundary rate d^tau.  An
    existence zone's `predicted_exponent` is its one boundary rate
    (-2*alpha/(p-1), gamma + 2*alpha or gamma/p), the rate at which
    `fraclap.barriers.make_existence_pair` builds its barriers.  Comparisons
    that land within BOUNDARY_RTOL of a zone boundary raise
    AmbiguousRegimeError instead of being silently resolved (the one
    exception is the weak-source lower endpoint, which the theory closes).
    """
    alpha, p = params.alpha, params.p
    kc = find_tau0(alpha)
    tau0, p_star = kc.tau0, kc.p_star
    p_low = 1.0 + 2.0 * alpha
    tau_inter = -2.0 * alpha / (p - 1.0)

    gamma = params.source.gamma if params.source.kind == "power_collar" else None
    if tau is not None and not -1.0 < tau < 0.0:
        raise DomainError(f"tau={tau} outside (-1, 0)")

    def tie_check(x, y, what):
        if _tie(x, y):
            raise AmbiguousRegimeError(
                f"{what}: {x!r} ties {y!r} at floating-point resolution"
            )

    if gamma is not None:
        gamma_lo = -2.0 * alpha - 2.0 * alpha / (p - 1.0)
        # the weak-source range is closed at gamma_lo, so a tie there is fine
        weak_or_better = gamma >= gamma_lo or _tie(gamma, gamma_lo)
        if not weak_or_better:
            # strong source
            tie_check(p, p_low, "strong-source power bound")
            if p > p_low:
                return _rate_report(RegimeZone.STRONG_SOURCE, gamma / p, tau, "strong source", "")
            return RegimeReport(
                RegimeZone.UNCLASSIFIED, None, "strong source with p <= 1+2*alpha: not covered"
            )
        tie_check(gamma, -2.0 * alpha, "weak-source upper endpoint")
        if gamma < -2.0 * alpha:
            tie_check(p, p_star, "critical power")
            if p > p_star:
                return _rate_report(
                    RegimeZone.WEAK_SOURCE, gamma + 2.0 * alpha, tau, "weak source", ""
                )
            # p below critical with a source that still satisfies the growth cap
            tie_check(p, p_low, "interaction power range")
            if p > p_low:
                return _rate_report(
                    RegimeZone.EXISTENCE_INTERACTION,
                    tau_inter,
                    tau,
                    "weak-range source below the critical power",
                    "source within the admissible growth cap; interaction rate prevails",
                )
            return RegimeReport(
                RegimeZone.UNCLASSIFIED, None, "weak-range source with subcritical power"
            )
        # gamma in [-2*alpha, 0): source too tame to drive the explosion
        gamma = None

    # source-free (or tame-source) classification
    tie_check(p, p_low, "lower power bound")
    tie_check(p, p_star, "critical power")
    in_interaction = p_low < p < p_star

    if tau is None:
        if in_interaction:
            return RegimeReport(RegimeZone.EXISTENCE_INTERACTION, tau_inter)
        if p > p_star:
            return RegimeReport(
                RegimeZone.NONEXISTENCE_II, None, "no boundary power rate is attainable"
            )
        return RegimeReport(
            RegimeZone.NONEXISTENCE_III,
            None,
            "no boundary power rate is attainable except possibly d^tau0",
        )

    if in_interaction:
        if _tie(tau, tau_inter):
            return RegimeReport(RegimeZone.EXISTENCE_INTERACTION, tau_inter)
        if _tie(tau, tau0):
            window = special_window(params)
            if window is not None and window[0] < p < window[1]:
                return RegimeReport(
                    RegimeZone.SPECIAL_TAU0,
                    tau0,
                    "one-parameter family with gap exponent "
                    f"{min(tau0 * p + 2.0 * alpha, 0.0):.6g}",
                )
            return RegimeReport(
                RegimeZone.UNCLASSIFIED, None, "tau0 rate outside the proven special window"
            )
        return RegimeReport(RegimeZone.NONEXISTENCE_I, None)
    if p > p_star:
        return RegimeReport(RegimeZone.NONEXISTENCE_II, None)
    # p < 1 + 2*alpha
    if _tie(tau, tau0):
        return RegimeReport(
            RegimeZone.UNCLASSIFIED, None, "tau0 rate with subcritical power: not covered"
        )
    return RegimeReport(RegimeZone.NONEXISTENCE_III, None)


_ZONE_ROLES = {1: "super", 2: "super", 3: "sub", 4: "super", 5: "sub"}


def classify_zone6(p: float, tau: float, alpha: float) -> tuple[int, str]:
    """Map (p, tau) to the nonexistence-family zone {1..5} and its role.

    Zones 1, 2, 4 produce super-solutions (mu > 0); zones 3, 5 sub-solutions
    (mu < 0).  Parameters on a zone boundary (a tie in the sense of
    `classify_regime`) raise DomainError.
    """
    kc = find_tau0(alpha)
    tau0, p_star = kc.tau0, kc.p_star
    p_low = 1.0 + 2.0 * alpha
    tau_i = -2.0 * alpha / (p - 1.0)
    if _tie(tau, tau0) and _tie(p, p_star):
        return 4, _ZONE_ROLES[4]
    if _tie(tau, tau0) or (_tie(p, p_low) and tau < tau0) or (_tie(tau, tau_i) and p > p_low):
        raise DomainError(
            f"(p={p}, tau={tau}) sits on a zone boundary of the nonexistence family"
        )
    if tau > tau0:
        return 1, _ZONE_ROLES[1]
    if p > p_low and tau < tau_i:
        return 2, _ZONE_ROLES[2]
    if p_low < p <= p_star and tau_i < tau < tau0:
        return 3, _ZONE_ROLES[3]
    if p <= p_low and tau < tau0:
        return 5, _ZONE_ROLES[5]
    raise DomainError(f"(p={p}, tau={tau}) is not covered by any nonexistence zone")
