"""Restricted fractional Laplacian on (0, 1): dense discretization plus
batched semi-analytic evaluation on barrier profiles.

Conventions.  The operator is the unnormalized second-difference form

    Lu(x) = -(1/2) int_R [u(x+y) + u(x-y) - 2 u(x)] |y|^(-1-2*alpha) dy,

with u = 0 on the whole complement of (0, 1).  For the indicator of the
interval this gives exactly L 1_(0,1)(x) = (x^(-2a) + (1-x)^(-2a)) / (2a), and
for the half-line power (z_+)^tau the exact identity L (z_+)^tau (x) =
-C(tau) x^(tau-2a) with C the kernel constant of `fraclap.quadrature` -- both
identities anchor the discrete and semi-analytic paths below.

Discretization.  Nodal collocation on a graded interior grid: between nodes
the function is piecewise linear (constant-extrapolated on the two unresolved
boundary cells so that interior constants are annihilated exactly), and on the
symmetric window around the collocation node the three-point parabola replaces
the linear interpolant, which removes the kink divergence at alpha >= 1/2 and
restores second-order consistency.  All kernel moments are power antiderivatives
in closed form (with the stable log branch at 2*alpha = 1); the singular kernel
is never sampled pointwise.

Mirror symmetry.  The grid is symmetric about 1/2, so the matrix satisfies
A[n-1-i, n-1-j] = A[i, j]: `assemble` integrates and stores only the (n+1)/2
left-half rows (x <= 1/2, where the node is its own boundary distance).
`OperatorMatrix.folded` restricts the operator to mirror-symmetric grid
functions, adding each right-half column to its mirror; off-diagonals stay
<= 0 and row sums are unchanged, so the folded matrix keeps the M-matrix
property the solvers rely on.  Only the blow-up path folds, and it never holds
an n x n array; `solve_linear` and `solve_semilinear` accept data that need
not be symmetric and factor the full `OperatorMatrix.shifted_dense`.

Exterior data.  The matrix is the zero-exterior operator.  Exterior values g
enter the equation only as the interior source G = `exterior_potential`(g):
the operator of u with exterior g is the zero-exterior operator of u minus G,
so a problem with source f and exterior g is the zero-exterior problem with
source f + G.

Barrier profiles.  `eval_on_power` evaluates the operator of the d^tau profile
at an array of points in one vectorized pass, with no adaptive quadrature: the
points are mirrored to their boundary distance d and each distinct d is
evaluated once.  Collar points use the half-line identity (C(tau) once per
call) plus a regular correction built from a fixed graded Gauss-Legendre rule
and closed-form 2F1 pieces; interior points use a fixed Gauss-Jacobi window and
fixed logarithmic Gauss-Legendre rules on per-point pieces of equal count, with
the collar crossings in closed form.  The rules are built on first use.

Special functions.  Every closed-form piece, and the incomplete beta of the
exterior potential, is one 2F1 family, 2F1(a, b; b+1; z), summed as its Gauss
series at z <= 1/2 (the interior windows) or z < delta/(1-delta) (the
collar) with the tail bound of `_gauss_series`; the Gauss-Jacobi and
Gauss-Legendre rules are Golub-Welsch (`_gauss_jacobi`).  The module needs
nothing beyond numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache as _lru_cache

import numpy as np

from .errors import DomainError, FraclapError, GridMismatchError
from .fields import ExteriorData
from .grid import Grid1D, GridFunction
from .quadrature import eval_C

__all__ = [
    "OperatorMatrix",
    "DistanceProfile",
    "assemble",
    "eval_on_power",
    "exterior_potential",
    "tail_coefficient",
    "EVAL_D_MIN",
]

# below this boundary distance double precision cancellation dominates the
# semi-analytic evaluation; callers get a hard error rather than noise
EVAL_D_MIN = 1e-6


def tail_coefficient(x, alpha: float):
    """Coefficient of u(x) contributed by the zero exterior: the operator of
    the interval indicator, (x^(-2a) + (1-x)^(-2a)) / (2a)."""
    x = np.asarray(x, dtype=float)
    return (x ** (-2.0 * alpha) + (1.0 - x) ** (-2.0 * alpha)) / (2.0 * alpha)


def _pow_antideriv(log_lo, log_hi, expo: float):
    """int_{r_lo}^{r_hi} r^expo dr from log r_lo and log r_hi, stable through
    expo == -1 (log branch)."""
    s = expo + 1.0
    dlog = log_hi - log_lo
    if abs(s) < 1e-9:
        # e^(s log lo) * expm1(s dlog) / s, expanded around s = 0
        return np.exp(s * log_lo) * dlog * (1.0 + 0.5 * s * dlog * (1.0 + s * dlog / 3.0))
    return np.exp(s * log_lo) * np.expm1(s * dlog) / s


def _linear_cell_moments(lo, hi, expo: float):
    """Moments of r^expo over cells [lo, hi], 0 < lo < hi, against a linear
    function of r: (m0, near, far), the plain moment and the weights of the
    values at r = lo and r = hi (near + far = m0 in exact arithmetic)."""
    log_lo, log_hi = np.log(lo), np.log(hi)
    m0 = _pow_antideriv(log_lo, log_hi, expo)
    m1 = _pow_antideriv(log_lo, log_hi, expo + 1.0)
    h = hi - lo
    return m0, (hi * m0 - m1) / h, (m1 - lo * m0) / h


# ---------------------------------------------------------------------------
# barrier profiles: d^tau on the collar, positive C^2 interior continuation
# ---------------------------------------------------------------------------


def _quintic_log_blend(tau: float, delta: float) -> np.ndarray:
    """Coefficients of the quintic q with exp(q(d)) gluing d^tau at d = delta
    (value and two derivatives) to a flat positive constant at d = 1/2.

    Working on log-values keeps the continuation positive for every
    tau in (-1, 0], which a plain polynomial blend does not guarantee.
    """
    half = 0.5

    def rows(s):
        return [
            [s**k for k in range(6)],
            [0.0] + [k * s ** (k - 1) for k in range(1, 6)],
            [0.0, 0.0] + [k * (k - 1) * s ** (k - 2) for k in range(2, 6)],
        ]

    A = np.array(rows(delta) + rows(half), dtype=float)
    b = np.array(
        [tau * math.log(delta), tau / delta, -tau / delta**2, tau * math.log(half), 0.0, 0.0]
    )
    return np.linalg.solve(A, b)


@dataclass(frozen=True)
class DistanceProfile:
    """The function equal to d(x)^tau on the boundary collar {d <= delta},
    delta = 0.1, extended to a positive C^2 function of d on the interior and
    by zero outside (0, 1)."""

    tau: float
    _q: np.ndarray = field(init=False, repr=False)
    delta = 0.1  # collar width: a class constant, not a field

    def __post_init__(self):
        if not -1.0 < self.tau <= 0.0:
            raise DomainError(f"profile exponent tau={self.tau} outside (-1, 0]")
        object.__setattr__(self, "_q", _quintic_log_blend(self.tau, self.delta))

    # -- profile as a function of the boundary distance s ------------------
    def v(self, s):
        scalar = np.isscalar(s) or np.ndim(s) == 0
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        collar = s <= self.delta
        out[collar] = s[collar] ** self.tau
        si = s[~collar]
        out[~collar] = np.exp(np.polyval(self._q[::-1], si))
        return out[0] if scalar else out

    # -- profile as a function of the spatial point x ----------------------
    def value(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = (x > 0.0) & (x < 1.0)
        out[inside] = self.v(np.minimum(x[inside], 1.0 - x[inside]))
        return out[0] if scalar else out


@_lru_cache(maxsize=64)
def _gauss_jacobi(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss nodes and weights for the weight (1+t)^b on [-1, 1],
    b > -1 (b = 0 is Gauss-Legendre).

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the orthonormal Jacobi polynomials p_k (parameters 0
    and b).  The weights come from the Christoffel function,
    w_i = 1 / sum_k p_k(t_i)^2, a sum of positive terms, so the tiny weights
    near t = -1 keep their relative accuracy (the squared first eigenvector
    components would not).
    """
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * k * (k + b) * (k + b) / (s * s * (s + 1.0) * (s - 1.0)))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # orthonormal recurrence off[j] p_(j+1) = (t - diag[j]) p_j - off[j-1] p_(j-1)
    # from p_(-1) = 0 and p_0 = mu0^(-1/2), mu0 = int (1+t)^b dt over [-1, 1]
    p_prev, p = np.zeros(n), np.full(n, (2.0 ** (b + 1.0) / (b + 1.0)) ** -0.5)
    total = p * p
    for j in range(n - 1):
        p_prev, p = p, ((t - diag[j]) * p - off[j - 1] * p_prev) / off[j]
        total += p * p
    return t, 1.0 / total


# ---------------------------------------------------------------------------
# batched evaluation of the operator on a distance profile
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes per panel; geometric ratio and depth of the graded
# rule (it resolves an endpoint singularity down to ratio**levels of the
# interval); panels of the logarithmic rule
_PANEL_NODES = 14
_GRADE_RATIO = 0.25
_GRADE_LEVELS = 20
_LOG_PANELS = 6


@_lru_cache(maxsize=None)
def _graded_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], in panels graded
    geometrically toward 0: [0, q^L], [q^L, q^(L-1)], ..., [q, 1].

    Returned as (panels, nodes per panel) arrays so callers can sweep one
    panel at a time.
    """
    t, wts = _gauss_jacobi(_PANEL_NODES, 0.0)
    edges = np.concatenate(([0.0], _GRADE_RATIO ** np.arange(_GRADE_LEVELS, -1, -1.0)))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return lo + width * (t + 1.0) / 2.0, width * wts / 2.0


@_lru_cache(maxsize=None)
def _log_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1] in equal panels, as (panels, nodes) arrays,
    for the substitution r = a (b/a)^u of an integral over [a, b], 0 < a <= b.

    In log r an integrand with an algebraic singularity at r = 0 is analytic
    in a strip, so the rule is uniformly accurate however small a/b is.
    """
    t, wts = _gauss_jacobi(_PANEL_NODES, 0.0)
    lo = np.arange(_LOG_PANELS)[:, None] / _LOG_PANELS
    nodes = lo + (t + 1.0) / (2.0 * _LOG_PANELS)
    return nodes, np.broadcast_to(wts / (2.0 * _LOG_PANELS), nodes.shape)


def _taylor(a: np.ndarray, x) -> list:
    """Coefficients c_1..c_5 of q(x+h) - q(x) = sum_k c_k h^k for the
    quintic q with ascending coefficients a (exact, no truncation)."""
    return [sum(a[j] * math.comb(j, k) * x ** (j - k) for j in range(k, 6)) for k in range(1, 6)]


def _poly_increment(coef: list, h):
    out = 0.0
    for c_k in reversed(coef):
        out = (out + c_k) * h
    return out


def _seam_log_gap(profile: DistanceProfile, s: np.ndarray) -> np.ndarray:
    """q(s) - tau*log(s) for s > 0: the log of the interior continuation
    over the collar power, which vanishes to third order at the C^2 seam
    s = delta.

    Summed in the displacement h = s - delta with the value and the first two
    derivatives matched exactly (the glue conditions of the quintic), so it
    keeps full relative accuracy as s -> delta instead of being two O(1) logs
    subtracted, and the two branches of the profile meet exactly C^2.
    """
    tau, delta = profile.tau, profile.delta
    _, _, c3, c4, c5 = _taylor(profile._q, delta)
    h = s - delta
    # phi(u) = log1p(u) - u + u^2/2, by its Taylor series where that cancels
    u = h / delta
    phi = np.log1p(u) - u + u * u / 2.0
    near = np.abs(u) < 0.1
    un = u[near]
    series = np.zeros_like(un)
    for k in range(20, 2, -1):
        series = series * un + (-1.0) ** (k + 1) / k
    phi[near] = series * un**3
    return ((c5 * h + c4) * h + c3) * h**3 - tau * phi


def _second_difference(
    profile: DistanceProfile, x, coef: list, r, keep_plus=True, keep_minus=True
):
    """[V(x+r) + V(x-r)] / V(x) - 2 at interior points delta <= x <= 1/2
    (x and coef = _taylor(q, x) broadcast against r > 0), with a term replaced
    by 0 where keep_plus / keep_minus is False.

    log V(x +- r) - log V(x) = A_even +- A_odd + a branch correction, where
    A is the Taylor polynomial of q at x and the corrections are the mirror
    image past 1/2 and the seam gap on the collar.  When both terms are
    present their sum is 2[expm1(S) cosh(O) + 2 sinh(O/2)^2] with S, O the
    even and odd parts, which keeps full relative accuracy as r -> 0 instead
    of losing it to roundoff amplified by 1/r^2.
    """
    r2 = r * r
    odd = ((coef[4] * r2 + coef[2]) * r2 + coef[0]) * r
    even = (coef[3] * r2 + coef[1]) * r2
    corrections, present = [], []
    for h, keep in ((r, keep_plus), (-r, keep_minus)):
        z = x + h
        mirror = z > 0.5
        ds = np.where(mirror, (1.0 - 2.0 * x) - h, h)
        s = x + ds
        used = (s > 0.0) & keep
        corr = np.zeros(np.shape(ds))
        if mirror.any():
            corr = np.where(mirror, _poly_increment(coef, ds) - _poly_increment(coef, h), 0.0)
        collar = used & (s < profile.delta)
        if collar.any():
            corr[collar] -= _seam_log_gap(profile, s[collar])
        corrections.append(corr)
        present.append(used)
    p, m = corrections
    use_p, use_m = present
    S = even + (p + m) / 2.0
    O = odd + (p - m) / 2.0
    with np.errstate(over="ignore"):  # only in entries the masks discard
        both = 2.0 * (np.expm1(S) * np.cosh(O) + 2.0 * np.sinh(O / 2.0) ** 2)
        single = np.where(use_p, np.expm1(even + odd + p), -1.0) + np.where(
            use_m, np.expm1(even - odd + m), -1.0
        )
    return np.where(use_p & use_m, both, single)


def _gauss_series(a: float, b: float, z, z_max: float = 0.5):
    """2F1(a, b; b+1; z) = sum_k (a)_k / k! * b / (b+k) * z^k for |a| <= 3,
    b > 0 and an array 0 <= z <= z_max < 1, summed to the K terms with
    z_max^K <= 2^-80 (K = 80 for z_max = 1/2).

    Tail bound: the term ratio is |t_(k+1) / t_k| = |a+k| / (k+1) *
    (b+k) / (b+k+1) * z <= rho = z_max (K+3) / (K+1) for k >= K, so the
    remainder after K terms is at most |t_K| / (1 - rho), with
    |t_K| <= (|a|)_K / K! * z_max^K <= (K+1)(K+2)/2 * 2^-80.  For
    z_max = 1/2 that is below 6e-21, while the sum is at least 1/4 at every
    call here.  Horner's rule does the same operations on every entry of z,
    so a batch equals its points evaluated one at a time.
    """
    k = np.arange(1.0, math.ceil(80.0 * math.log(2.0) / -math.log(z_max)))
    coef = np.cumprod((a + k - 1.0) / k) * (b / (b + k))
    out = np.zeros(np.shape(z))
    for c in coef[::-1]:
        out += c
        out *= z
    return out + 1.0


def _power_window(c, u, tau: float, alpha: float, u_max: float = 0.5):
    """int_0^u s^tau (c - s)^(-1-2a) ds for 0 < u <= u_max c, u_max < 1, in
    closed form: c^(-1-2a) u^(tau+1) / (tau+1) * 2F1(1+2a, tau+1; tau+2; u/c)."""
    return c ** (-1.0 - 2.0 * alpha) * u ** (tau + 1.0) / (tau + 1.0) * _gauss_series(
        1.0 + 2.0 * alpha, tau + 1.0, u / c, u_max
    )


def _collar_values(profile: DistanceProfile, alpha: float, x: np.ndarray, c_val: float):
    """Operator of the profile at left-collar points 0 < x < delta.

    Splitting the profile as z_+^tau plus a remainder D vanishing on
    (-inf, delta], the half-line identity gives -C(tau) x^(tau-2a), and the
    remainder contributes -int_delta^inf D(z) (z - x)^(-1-2a) dz, which is
    regular in x.  Its pieces: D = profile - z^tau on [delta, 1-delta]
    (graded Gauss-Legendre toward the C^2 seam at delta, where D vanishes to
    third order, and plain Gauss-Legendre past the C^2 point 1/2); the
    (1-z)^tau power on [1-delta, 1] and the z^tau tail on [1-delta, inf) in
    closed hypergeometric form.
    """
    tau, delta = profile.tau, profile.delta
    w = -1.0 - 2.0 * alpha
    t, wts = _graded_rule()
    z_seam = delta + (0.5 - delta) * t
    g_half, w_half = _gauss_jacobi(2 * _PANEL_NODES, 0.0)
    z_half = 0.5 + (0.5 - delta) * (g_half + 1.0) / 2.0
    panels = [(z_seam[k], (0.5 - delta) * wts[k]) for k in range(t.shape[0])]
    panels.append((z_half, (0.5 - delta) * w_half / 2.0))

    corr = np.zeros_like(x)
    for k, (z, wz) in enumerate(panels):
        if k < len(panels) - 1:
            d_z = z**tau * np.expm1(_seam_log_gap(profile, z))
        else:
            d_z = profile.value(z) - z**tau
        corr += ((z[None, :] - x[:, None]) ** w * (d_z * wz)).sum(axis=1)
    # both 2F1 arguments are below delta / (1 - delta), since x < delta
    z_max = delta / (1.0 - delta)
    corr += _power_window(1.0 - x, delta, tau, alpha, z_max)
    b = 2.0 * alpha - tau
    corr -= (1.0 - delta) ** (-b) / b * _gauss_series(
        1.0 + 2.0 * alpha, b, x / (1.0 - delta), z_max
    )
    return -c_val * x ** (tau - 2.0 * alpha) - corr


def _interior_values(profile: DistanceProfile, alpha: float, x: np.ndarray):
    """Operator of the profile at points delta <= x <= 1/2 by the
    second-difference integral in the radius r, batched over x.

    [0, r0]: fixed Gauss-Jacobi window on the weight r^(1-2a).  [r0, 1-x]:
    cut per point at every radius where x - r or x + r crosses a breakpoint
    of the profile, plus the window starts below, and integrated with the
    logarithmic Gauss-Legendre rule on each piece (zero-length pieces pad
    every point to the same shape).  Near the two crossings r -> x and r -> 1-x
    the profile is the collar power, so the windows [max(c - delta, c/2), c]
    of each crossing radius c drop that term from the quadrature and add it
    back in closed form.  Beyond 1 - x only the constant tail remains.
    """
    tau, delta = profile.tau, profile.delta
    w = -1.0 - 2.0 * alpha
    fx = profile.v(x)
    R = 1.0 - x

    dists = np.abs(np.stack([x, x - delta, 0.5 - x, 1.0 - delta - x, R]))
    dists[dists <= 1e-14] = np.inf
    r0 = np.minimum(0.45 * dists.min(axis=0), 0.1)

    # near window: int_0^r0 [second difference / r^2] r^(1-2a) dr
    t, wts = _gauss_jacobi(48, 1.0 - 2.0 * alpha)
    r = r0[:, None] * (1.0 + t) / 2.0
    xc = x[:, None]
    coef = _taylor(profile._q, xc)
    g = _second_difference(profile, xc, coef, r) / (r * r)
    total = (r0 / 2.0) ** (2.0 - 2.0 * alpha) * (g * wts).sum(axis=1)

    # crossing windows, removed from the quadrature and added back exactly
    lo_minus = np.maximum.reduce([r0, x - delta, x / 2.0])
    lo_plus = np.maximum.reduce([r0, R - delta, R / 2.0])
    windows = _power_window(
        np.concatenate((x, R)), np.concatenate((x - lo_minus, R - lo_plus)), tau, alpha
    ).reshape(2, -1).sum(axis=0)

    # middle range: all pieces of all points stacked along the first axis
    cuts = np.stack([r0, x - delta, lo_minus, 0.5 - x, lo_plus, x, R])
    cuts = np.sort(np.clip(cuts, r0, R), axis=0)
    n_pieces = cuts.shape[0] - 1
    a, b = cuts[:-1].ravel(), cuts[1:].ravel()
    mid = (a + b) / 2.0
    keep_minus = (mid < np.tile(lo_minus, n_pieces))[:, None]
    keep_plus = (mid < np.tile(lo_plus, n_pieces))[:, None]
    xs = np.tile(x, n_pieces)[:, None]
    coef = _taylor(profile._q, xs)
    log_ratio = np.log(b / a)[:, None]
    mid_sum = np.zeros_like(a)
    for uk, wk in zip(*_log_rule()):
        r = a[:, None] * np.exp(log_ratio * uk)  # dr = r log(b/a) du
        diff = _second_difference(profile, xs, coef, r, keep_plus, keep_minus)
        mid_sum += (diff * r ** (w + 1.0) * wk).sum(axis=1)
    total += (mid_sum * log_ratio[:, 0]).reshape(n_pieces, -1).sum(axis=0)

    total -= 2.0 * R ** (-2.0 * alpha) / (2.0 * alpha)
    return -(fx * total + windows)


def eval_on_power(tau: float, alpha: float, x):
    """Operator values of the d^tau barrier profile (`DistanceProfile`) at
    points x in (0, 1).

    x may be a scalar (a float is returned) or an array (an array of the same
    shape is returned).  The profile is symmetric, so every point is mapped
    to its boundary distance d = min(x, 1-x) and each distinct d is
    evaluated once.  On the collar d < delta the half-line identity supplies
    the singular part -C(tau) d^(tau-2a) in closed form (C computed once per
    call) and only a regular correction is integrated, so accuracy does not
    depend on how small d is down to the floor EVAL_D_MIN; below the floor
    the call raises.  Points with d >= delta go through the batched
    second-difference integral.
    """
    profile = DistanceProfile(tau=tau)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    xs = np.asarray(x, dtype=float)
    outside = ~((xs > 0.0) & (xs < 1.0))
    if np.any(outside):
        raise DomainError(f"x={xs[outside].flat[0]} outside (0, 1)")
    d_all = np.minimum(xs, 1.0 - xs)
    if np.any(d_all < EVAL_D_MIN):
        raise DomainError(
            f"d(x)={d_all.min()} below the evaluation floor {EVAL_D_MIN}"
        )

    d, inverse = np.unique(d_all, return_inverse=True)
    out = np.empty_like(d)
    collar = d < profile.delta
    if np.any(collar):
        out[collar] = _collar_values(profile, alpha, d[collar], eval_C(tau, alpha))
    if not np.all(collar):
        out[~collar] = _interior_values(profile, alpha, d[~collar])
    vals = out[inverse].reshape(xs.shape)
    return float(vals) if xs.ndim == 0 else vals


# ---------------------------------------------------------------------------
# exterior potential
# ---------------------------------------------------------------------------


def _incomplete_beta(a: float, b: float, x):
    """B_x(a, b) = int_0^x t^(a-1) (1-t)^(b-1) dt for a, b in (0, 3) and an
    array x in (0, 1): x^a / a * 2F1(1-b, a; a+1; x) for x <= 1/2, and
    B(a, b) - B_(1-x)(b, a) above, so the series always has z <= 1/2."""
    x = np.asarray(x, dtype=float)
    low = x <= 0.5
    out = np.empty_like(x)
    xl, xh = x[low], 1.0 - x[~low]
    out[low] = xl**a / a * _gauss_series(1.0 - b, a, xl)
    full = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    out[~low] = full - xh**b / b * _gauss_series(1.0 - a, b, xh)
    return out


def _power_collar_potential(beta: float, kappa: float, eta: float, alpha: float, x):
    """Potential of the one-sided collar density s^beta, distance offset x:
    kappa * int_0^eta s^beta (x+s)^(-1-2a) ds + frozen continuation beyond."""
    x = np.asarray(x, dtype=float)
    T = eta / x
    inc = _incomplete_beta(beta + 1.0, 2.0 * alpha - beta, T / (1.0 + T))
    collar = x ** (beta - 2.0 * alpha) * inc
    frozen = eta**beta * (x + eta) ** (-2.0 * alpha) / (2.0 * alpha)
    return kappa * (collar + frozen)


def exterior_potential(exterior: ExteriorData, alpha: float, x):
    """G(x) = integral of the exterior data against the kernel |z - x|^(-1-2a):
    the interior load produced by nonzero exterior values.  The operator of u
    with exterior g equals the zero-exterior operator of u minus G, so the
    problem with source f and exterior g is solved as the zero-exterior
    problem with source f + G tabulated at the grid nodes; this is the only
    way exterior data reaches the solvers.

    Power collars integrate in closed incomplete-beta form.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0.0) | (x >= 1.0)):
        raise DomainError("exterior potential is defined for x inside (0, 1)")
    if exterior.is_zero:
        return np.zeros_like(x)
    collar = (exterior.beta, exterior.kappa_g, exterior.eta, alpha)
    return _power_collar_potential(*collar, x) + _power_collar_potential(*collar, 1.0 - x)


# ---------------------------------------------------------------------------
# dense discretization
# ---------------------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Dense collocation matrix of the zero-exterior operator on a grid.

    apply(u) = A @ u + tail * u, where the interaction matrix A annihilates
    interior constants (rows sum to zero) and `tail` is the exact
    zero-exterior coefficient of u(x_i).  Only `rows` = A[:n_half] is stored;
    the rest of A is its mirror image A[n-1-i, n-1-j] = A[i, j].  Exterior
    data is a source term (`exterior_potential`), not part of the matrix.
    """

    alpha: float
    grid: Grid1D
    rows: np.ndarray
    tail: np.ndarray

    def apply(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise GridMismatchError("grid of the function differs from the operator grid")
        v = u.values
        # row n-1-k of A is row k of `rows` reversed
        right = (self.rows[: self.grid.n_interior - self.grid.n_half] @ v[::-1])[::-1]
        return GridFunction(self.grid, np.concatenate((self.rows @ v, right)) + self.tail * v)

    def shifted_dense(self, shift) -> np.ndarray:
        """The full n x n A + diag(tail + shift); shift may be scalar or nodal."""
        n, h = self.grid.n_interior, self.grid.n_half
        m = np.concatenate((self.rows, self.rows[: n - h][::-1, ::-1]))
        m[np.diag_indices(n)] += self.tail + np.broadcast_to(shift, (n,))
        return m

    def folded(self) -> np.ndarray:
        """The system on mirror-symmetric grid functions, h = n_half unknowns:
        A_f[i, j] = A[i, j] + A[i, n-1-j] for i, j < h (the midpoint column of
        odd n has no partner) plus diag(tail[:h]).  A_f v = (A mirror(v))[:h].
        """
        n, h = self.grid.n_interior, self.grid.n_half
        m = self.rows[:, :h].copy()
        m[:, : n - h] += self.rows[:, : h - 1 : -1]
        m[np.diag_indices(h)] += self.tail[:h]
        return m


def assemble(grid: Grid1D, alpha: float) -> OperatorMatrix:
    """Assemble the dense zero-exterior operator matrix (its left-half rows)
    on the grid.

    All moments are closed-form power antiderivatives; a non-finite row is a
    hard failure (it would signal a degenerate spacing or an exponent branch
    that escaped the stable antiderivative).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha} outside (0, 1)")
    nodes = grid.nodes
    n = nodes.size
    edges = grid.cell_edges()
    w0 = -1.0 - 2.0 * alpha

    n_left = grid.n_half
    rows = np.empty((n_left, n))  # every row is written below
    cell_lo_all = edges[:-1]
    cell_hi_all = edges[1:]

    for i in range(n_left):
        x = nodes[i]
        row = np.zeros(n + 2)  # indexed by edge endpoints, folded to nodes below

        h_minus = x - edges[i]
        h_plus = edges[i + 2] - x
        h_m = min(h_minus, h_plus)

        # symmetric window: three-point parabola, only the even term survives
        m_sym = 2.0 * h_m ** (2.0 - 2.0 * alpha) / (2.0 - 2.0 * alpha)
        denom = h_minus * h_plus * (h_minus + h_plus)
        row[i] += m_sym * h_plus / denom
        row[i + 2] += m_sym * h_minus / denom
        row[i + 1] -= m_sym * (h_minus + h_plus) / denom

        # one-sided leftover of the local zone: piecewise-linear slope moment
        if h_plus > h_m * (1.0 + 1e-14):
            m_sl = float(_pow_antideriv(np.log(h_m), np.log(h_plus), -2.0 * alpha))
            row[i + 2] += m_sl / h_plus
            row[i + 1] -= m_sl / h_plus
        elif h_minus > h_m * (1.0 + 1e-14):
            m_sl = float(_pow_antideriv(np.log(h_m), np.log(h_minus), -2.0 * alpha))
            row[i] += m_sl / h_minus
            row[i + 1] -= m_sl / h_minus

        # far cells, vectorized: right of the local zone
        if i + 2 <= n:
            m0, near, far = _linear_cell_moments(
                cell_lo_all[i + 2 :] - x, cell_hi_all[i + 2 :] - x, w0
            )
            row[i + 2 : n + 1] += near
            row[i + 3 : n + 2] += far
            row[i + 1] -= m0.sum()

        # far cells left of the local zone (r = x - z, so the roles of the
        # endpoints mirror: the cell's right edge sits at the small-r end)
        if i >= 1:
            m0, near, far = _linear_cell_moments(
                x - cell_hi_all[:i], x - cell_lo_all[:i], w0
            )
            row[0:i] += far
            row[1 : i + 1] += near
            row[i + 1] -= m0.sum()

        # fold virtual boundary endpoints onto the extreme nodes
        # (constant extrapolation on the unresolved boundary cells)
        row[1] += row[0]
        row[n] += row[n + 1]
        rows[i] = -row[1 : n + 1]

    if not np.all(np.isfinite(rows)):
        raise FraclapError("assembly produced a non-finite kernel moment")
    # for odd n the midpoint row is its own mirror, exactly
    if n % 2:
        rows[-1, n_left:] = rows[-1, : n_left - 1][::-1]

    tail = grid.mirror(tail_coefficient(nodes[:n_left], alpha))
    return OperatorMatrix(alpha=alpha, grid=grid, rows=rows, tail=tail)
