"""Closed forms of the one-dimensional truncated-kernel integrals.

The central object is the kernel constant

    C(tau) = int_0^inf [ chi_(0,1)(t) |1-t|^tau + (1+t)^tau - 2 ] t^(-1-2*alpha) dt,

defined for alpha in (0,1) and tau in (-1, 2*alpha).  C governs the sign of the
fractional Laplacian of the distance power d(x)^tau near the boundary.  It has
the closed form (Dyda, "Fractional calculus for power functions and
eigenvalues of the fractional Laplacian", FCAA 15, 2012)

    C(tau) = K g(tau) s(tau),   K = -1 / (Gamma(1+2*alpha) sin(pi*alpha)),
    g(tau) = Gamma(1+tau) Gamma(2*alpha-tau),   s(tau) = sin(pi*(alpha-tau)).

Its roots in the domain are tau = alpha - 1 and tau = alpha, so the critical
barrier exponent is tau0 = alpha - 1 exactly; the special case tau0 is the
classical fact that x_+^(alpha-1) is alpha-harmonic on the half-line.  The
tau-derivatives follow from digamma and trigamma values of g and the
derivatives of s; `_psi01` gives both by recurrence and asymptotic series,
and every Gamma value is `math.gamma`.  The companion constant

    C~(beta) = int_1^inf (t-1)^beta t^(-1-2*alpha) dt = B(beta+1, 2*alpha-beta)

controls the boundary growth of the potential generated by power-type exterior
data; the substitution t -> 1/u turns it into an Euler Beta value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "KernelConstants",
    "eval_C",
    "eval_C_derivatives",
    "eval_C_tilde",
]


@dataclass(frozen=True)
class KernelConstants:
    """Critical constants attached to one value of alpha.

    tau0 = alpha - 1 is the root of C in (-1,0); p_star = 1 - 2*alpha/tau0
    = (1+alpha)/(1-alpha) is the upper critical power of the source-free
    blow-up range.
    """

    alpha: float
    tau0: float
    p_star: float


def _check_domain(tau: float, alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if not -1.0 < tau < 2.0 * alpha:
        raise DomainError(f"tau={tau} outside (-1, {2 * alpha}) for alpha={alpha}")


def _parts(tau: float, alpha: float) -> tuple[float, float, float]:
    """(K, g(tau), pi*(alpha-tau)): the scale, the Gamma product and the sine argument."""
    _check_domain(tau, alpha)
    k = -1.0 / (math.gamma(1.0 + 2.0 * alpha) * math.sin(math.pi * alpha))
    return k, math.gamma(1.0 + tau) * math.gamma(2.0 * alpha - tau), math.pi * (alpha - tau)


def _psi01(x: float) -> tuple[float, float]:
    """(digamma(x), trigamma(x)) for 0 < x < 3.

    Upward recurrence psi(x) = psi(x+1) - 1/x, psi_1(x) = psi_1(x+1) + 1/x^2
    to y >= 10, then the asymptotic series (Abramowitz & Stegun 6.3.18 and
    6.4.12) through the Bernoulli number B_14: psi(y) = log y - 1/(2y) -
    sum_k B_2k / (2k y^2k), psi_1(y) = 1/y + 1/(2y^2) + sum_k B_2k / y^(2k+1).
    At y >= 10 the first omitted terms (B_16) are below 1e-16.
    """
    s0 = s1 = 0.0
    while x < 10.0:
        r = 1.0 / x
        s0 += r
        s1 += r * r
        x += 1.0
    r = 1.0 / x
    z = r * r
    # B_2k / 2k and B_2k for k = 1..7: 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730, 7/6
    d0 = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (
        1 / 132 - z * (691 / 32760 - z / 12))))))
    d1 = r * z * (1 / 6 - z * (1 / 30 - z * (1 / 42 - z * (1 / 30 - z * (
        5 / 66 - z * (691 / 2730 - z * 7 / 6))))))
    return math.log(x) - 0.5 * r - d0 - s0, r + 0.5 * z + d1 + s1


def eval_C(tau: float, alpha: float) -> float:
    """Kernel constant C(tau) for the given alpha."""
    k, g, arg = _parts(tau, alpha)
    return k * g * math.sin(arg)


def eval_C_derivatives(tau: float, alpha: float) -> tuple[float, float]:
    """(C'(tau), C''(tau)) from the product form C = K g s.

    With L = psi(1+tau) - psi(2*alpha-tau): g' = g L, g'' = g (L^2 + psi_1(1+tau)
    + psi_1(2*alpha-tau)), s' = -pi cos(pi(alpha-tau)), s'' = -pi^2 s.  The
    product form stays accurate at the roots of C, where C (log C)' would not.
    C is strictly convex on (-1, 2*alpha), so the second value is positive.
    """
    k, g, arg = _parts(tau, alpha)
    psi_a, psi1_a = _psi01(1.0 + tau)
    psi_b, psi1_b = _psi01(2.0 * alpha - tau)
    lg = psi_a - psi_b
    g1 = g * lg
    g2 = g * (lg * lg + psi1_a + psi1_b)
    s, s1 = math.sin(arg), -math.pi * math.cos(arg)
    s2 = -math.pi * math.pi * s
    return k * (g1 * s + g * s1), k * (g2 * s + 2.0 * g1 * s1 + g * s2)


def eval_C_tilde(beta: float, alpha: float) -> float:
    """Exterior-data kernel constant C~(beta) = int_1^inf (t-1)^beta t^(-1-2a) dt
    = B(beta+1, 2*alpha-beta).

    Always positive on the admissible range beta in (-1, 0] (beta = 0 gives
    exactly 1/(2*alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    if not -1.0 < beta <= 0.0:
        raise DomainError(f"beta={beta} outside (-1, 0]")
    a, b = beta + 1.0, 2.0 * alpha - beta
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
