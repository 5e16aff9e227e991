"""Recompute the high-precision reference values frozen into the test suite.

Everything here is derived straight from the defining integrals with mpmath,
independently of the package's closed forms.  The second-difference
integrands cancel catastrophically near t = 0, so the singular zones are
integrated via exact even-power series / incomplete-beta closed forms and only
the regular remainders go through mp.quad.  Run it to regenerate the constants
pasted into tests/ (stable to far more digits than any tolerance used there).
"""

import mpmath as mp

mp.mp.dps = 40


def kernel_constant(tau, alpha):
    """C(tau) = int_0^inf [chi_(0,1)(t)|1-t|^tau + (1+t)^tau - 2] t^(-1-2a) dt."""
    tau = mp.mpf(tau)
    alpha = mp.mpf(alpha)
    a, b, T = mp.mpf("0.25"), mp.mpf("0.25"), mp.mpf(4)

    # [0, a]: (1-t)^tau + (1+t)^tau - 2 = 2 sum_{k>=1} binom(tau,2k) t^(2k)
    s0 = mp.mpf(0)
    k = 1
    while True:
        term = 2 * mp.binomial(tau, 2 * k) * a ** (2 * k - 2 * alpha) / (2 * k - 2 * alpha)
        s0 += term
        if abs(term) < mp.mpf(10) ** (-mp.mp.dps - 5) and k > 4:
            break
        k += 1

    def full(t):
        return ((1 - t) ** tau + (1 + t) ** tau - 2) * t ** (-1 - 2 * alpha)

    q1 = mp.quad(full, [a, 1 - b])

    # (1-t)^tau part on [1-b, 1]:  int_0^b s^tau (1-s)^(-1-2a) ds
    s1 = mp.betainc(tau + 1, -2 * alpha, 0, b)

    def smooth(t):
        return ((1 + t) ** tau - 2) * t ** (-1 - 2 * alpha)

    q2 = mp.quad(smooth, [1 - b, T, mp.inf])
    return s0 + q1 + s1 + q2


def kernel_derivative(tau, alpha, n):
    """n-th tau-derivative of the integral-defined C, by mpmath's numerical
    differentiation (which raises the working precision of every sample)."""
    return mp.diff(lambda t: kernel_constant(t, alpha), mp.mpf(tau), n)


def tau0(alpha):
    """Root of the integral-defined C in (-1, 0): bisection, then the
    Anderson-Bjorck bracketing iteration, from a bracket that does not assume
    the closed form."""
    alpha = mp.mpf(alpha)
    lo, hi = mp.mpf("-0.9999999"), mp.mpf(0)
    assert kernel_constant(lo, alpha) > 0 > kernel_constant(hi, alpha)
    for _ in range(12):
        mid = (lo + hi) / 2
        if kernel_constant(mid, alpha) > 0:
            lo = mid
        else:
            hi = mid
    return mp.findroot(lambda t: kernel_constant(t, alpha), (lo, hi), solver="anderson")


def kernel_closed_form(tau, alpha):
    """Dyda's closed form, printed beside the integral values as a check."""
    tau, alpha = mp.mpf(tau), mp.mpf(alpha)
    return (-mp.gamma(1 + tau) * mp.gamma(2 * alpha - tau) * mp.sin(mp.pi * (alpha - tau))
            / (mp.gamma(1 + 2 * alpha) * mp.sin(mp.pi * alpha)))


def frac_lap_smooth(F, x, alpha, breakpts):
    """(-Delta)^a F at x for F analytic near x, compactly supported on [0,1]."""
    x = mp.mpf(x)
    alpha = mp.mpf(alpha)
    rho = min([abs(x - p) for p in breakpts if abs(x - p) > 0] + [mp.mpf("0.05")]) / 2

    # even Taylor part on [0, rho], exact term-by-term integration
    nmax = 18
    coeffs = mp.taylor(F, x, nmax)
    near = mp.mpf(0)
    for k in range(1, nmax // 2 + 1):
        c2k = coeffs[2 * k]
        near += 2 * c2k * rho ** (2 * k - 2 * alpha) / (2 * k - 2 * alpha)

    def g(r):
        return (F(x + r) + F(x - r) - 2 * F(x)) * r ** (-1 - 2 * alpha)

    pts = sorted({abs(x - p) for p in breakpts} | {x, 1 - x})
    pts = [p for p in pts if p > rho]
    far = mp.quad(g, [rho] + pts + [max(pts) + 1, mp.inf])
    return -(near + far)


def frac_lap_bump(x, alpha, c=1.0):
    """(-Delta)^a of c*(4z(1-z))^3 on (0,1), 0 outside, at interior x."""

    def B(z):
        if 0 < z < 1:
            return mp.mpf(c) * (4 * z * (1 - z)) ** 3
        return mp.mpf(0)

    return frac_lap_smooth(B, x, alpha, [mp.mpf(0), mp.mpf(1)])


def frac_lap_dist_alpha(x, alpha):
    """(-Delta)^a of (4z(1-z))^a on (0,1), 0 outside (torsion closed form)."""
    a = mp.mpf(alpha)

    def w(z):
        if 0 < z < 1:
            return (4 * z * (1 - z)) ** a
        return mp.mpf(0)

    return frac_lap_smooth(w, x, alpha, [mp.mpf(0), mp.mpf("0.5"), mp.mpf(1)])


def _quintic_log_blend(tau, delta):
    """Coefficients of the quintic q for which exp(q(s)) glues s^tau at
    s = delta (value and two derivatives) to a flat constant at s = 1/2."""
    half = mp.mpf(1) / 2

    def rows(s):
        return [
            [s**k for k in range(6)],
            [0] + [k * s ** (k - 1) for k in range(1, 6)],
            [0, 0] + [k * (k - 1) * s ** (k - 2) for k in range(2, 6)],
        ]

    A = mp.matrix(rows(delta) + rows(half))
    b = mp.matrix(
        [tau * mp.log(delta), tau / delta, -tau / delta**2, tau * mp.log(half), 0, 0]
    )
    return mp.lu_solve(A, b)


def frac_lap_profile(x, tau, alpha, delta="0.1"):
    """(-Delta)^a of the barrier profile V = d^tau on {d <= delta}, exp(quintic)
    continuation inside, 0 outside (0, 1), at 0 < x <= 1/2.

    Collar points use the half-line identity L z_+^tau = -C(tau) x^(tau-2a)
    with C from `kernel_constant`, plus the remainder V - z_+^tau (zero on
    (-inf, delta]) integrated directly; interior points use `frac_lap_smooth`.
    """
    x, tau, alpha, delta = (mp.mpf(v) for v in (x, tau, alpha, delta))
    q = _quintic_log_blend(tau, delta)

    def V(z):
        if not 0 < z < 1:
            return mp.mpf(0)
        s = min(z, 1 - z)
        return s**tau if s <= delta else mp.exp(sum(q[k] * s**k for k in range(6)))

    if x >= delta:
        breakpts = [mp.mpf(0), delta, mp.mpf("0.5"), 1 - delta, mp.mpf(1)]
        return frac_lap_smooth(V, x, alpha, breakpts)
    w = -1 - 2 * alpha
    half = mp.mpf("0.5")
    # extra nodes resolve the kernel's near-singularity at z = x just below delta
    seam = sorted({delta + (delta - x) * k for k in (0, 1, 10, 100)} - {half})
    pts = [p for p in seam if p < half] + [half, 1 - delta, 1, 2, mp.inf]
    corr = mp.quad(lambda z: (V(z) - z**tau) * (z - x) ** w, pts)
    return -kernel_constant(tau, alpha) * x ** (tau - 2 * alpha) - corr


if __name__ == "__main__":
    print("# kernel constant spot values")
    for tau, alpha in [(-0.5, 0.25), (-0.25, 0.25), (-0.9, 0.5), (-0.999, 0.5),
                       (-0.5, 0.75), (-0.3, 0.5), (-0.7, 0.5), (0.25, 0.5)]:
        print(f"C({tau}, alpha={alpha}) = {mp.nstr(kernel_constant(tau, alpha), 20)}")

    print("# check C(0) = -1/(2 alpha)")
    for alpha in ["0.1", "0.5", "0.9"]:
        print(alpha, mp.nstr(kernel_constant(0, alpha) + 1 / (2 * mp.mpf(alpha)), 8))

    print("# C'(tau) and C''(tau) of the integral, with the closed form's for comparison")
    for tau, alpha in [("-0.4", "0.5"), ("-0.9", "0.5"), ("-0.75", "0.25"),
                       ("-0.1", "0.25"), ("-0.5", "0.75"), ("0.3", "0.75")]:
        for n in (1, 2):
            val = kernel_derivative(tau, alpha, n)
            ref = mp.diff(lambda t: kernel_closed_form(t, alpha), mp.mpf(tau), n)
            print(f"C^({n})({tau}, alpha={alpha}) = {mp.nstr(val, 20)}   "
                  f"closed form {mp.nstr(ref, 20)}")

    print("# root of the integral-defined C in (-1,0) vs alpha-1")
    for alpha in ["0.25", "0.5", "0.75"]:
        t0 = tau0(alpha)
        print(f"tau0({alpha}) = {mp.nstr(t0, 30)}   alpha-1 = {mp.nstr(mp.mpf(alpha)-1, 30)}")

    print("# fractional laplacian of the unit bump (c=1), alpha=0.5")
    for x in ["0.2", "0.35", "0.5", "0.65", "0.8"]:
        print(f"x={x}: {mp.nstr(frac_lap_bump(x, '0.5'), 18)}")

    print("# torsion closed form: (-Delta)^a (4x(1-x))^a should be constant in x")
    for alpha in ["0.5", "0.25", "0.75"]:
        vals = [frac_lap_dist_alpha(x, alpha) for x in ["0.2", "0.4", "0.5", "0.7"]]
        print(f"alpha={alpha}:", [mp.nstr(v, 16) for v in vals])
        a = mp.mpf(alpha)
        print("   closed form pi 4^a / sin(pi a):", mp.nstr(mp.pi * 4**a / mp.sin(mp.pi * a), 16))

    print("# operator of the d^tau barrier profile (delta = 0.1) at boundary distances d")
    cases = [(alpha, tau, d)
             for alpha, tau in [("0.25", "-0.6"), ("0.5", "-0.45"), ("0.75", "-0.3")]
             for d in ["1e-4", "3e-3", "0.05", "0.099", "0.101", "0.3", "0.4985"]]
    cases += [("0.5", "-0.5", d) for d in ["0.05", "0.099"]]
    for alpha, tau, d in cases:
        val = frac_lap_profile(d, tau, alpha)
        print(f"alpha={alpha} tau={tau} d={d}: {mp.nstr(val, 18)}")
