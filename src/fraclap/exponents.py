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
        if not self.p > 1.0:
            raise DomainError(f"p={self.p} must exceed 1")
        if self.source.kind == "power_collar":
            self.source.validate_for(self.alpha)

    @property
    def interaction_exponent(self) -> float:
        """Boundary exponent -2*alpha/(p-1) of the pure interaction regime."""
        return -2.0 * self.alpha / (self.p - 1.0)


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


def classify_regime(
    params: ProblemParams,
    gamma: float | None = None,
    tau: float | None = None,
) -> RegimeReport:
    """Assign (alpha, p [, gamma] [, tau]) to its existence/nonexistence zone.

    gamma defaults to the exponent of a power-collar source on `params`; tau,
    when given, asks specifically about solutions with boundary rate d^tau.
    Comparisons that land within BOUNDARY_RTOL of a zone boundary raise
    AmbiguousRegimeError instead of being silently resolved (the one exception
    is the weak-source lower endpoint, which the theory closes).
    """
    alpha, p = params.alpha, params.p
    kc = find_tau0(alpha)
    tau0, p_star = kc.tau0, kc.p_star
    p_low = 1.0 + 2.0 * alpha
    tau_inter = -2.0 * alpha / (p - 1.0)

    if gamma is None and params.source.kind == "power_collar":
        gamma = params.source.gamma
    if gamma is not None and not -1.0 - 2.0 * alpha < gamma < 0.0:
        raise DomainError(f"gamma={gamma} outside (-1-2*alpha, 0)")
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
                predicted = gamma / p
                if tau is not None:
                    if _tie(tau, predicted):
                        return RegimeReport(RegimeZone.STRONG_SOURCE, predicted)
                    return RegimeReport(
                        RegimeZone.UNCLASSIFIED,
                        None,
                        f"strong source admits only rate d^{predicted:.6g}; "
                        f"rate d^{tau:.6g} is excluded",
                    )
                return RegimeReport(RegimeZone.STRONG_SOURCE, predicted)
            return RegimeReport(
                RegimeZone.UNCLASSIFIED, None, "strong source with p <= 1+2*alpha: not covered"
            )
        tie_check(gamma, -2.0 * alpha, "weak-source upper endpoint")
        if gamma < -2.0 * alpha:
            tie_check(p, p_star, "critical power")
            if p > p_star:
                predicted = gamma + 2.0 * alpha
                if tau is not None:
                    if _tie(tau, predicted):
                        return RegimeReport(RegimeZone.WEAK_SOURCE, predicted)
                    return RegimeReport(
                        RegimeZone.UNCLASSIFIED,
                        None,
                        f"weak source admits only rate d^{predicted:.6g}; "
                        f"rate d^{tau:.6g} is excluded",
                    )
                return RegimeReport(RegimeZone.WEAK_SOURCE, predicted)
            # p below critical with a source that still satisfies the growth cap
            tie_check(p, p_low, "interaction power range")
            if p > p_low:
                return RegimeReport(
                    RegimeZone.EXISTENCE_INTERACTION,
                    tau_inter,
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
