"""Shared fixtures, including the independent kernel-constant oracles and
the dense reference operator.

`tau0_reference` holds mpmath roots of the integral-defined C (see
scripts/make_reference_values.py); `c_by_quad` and `c_tilde_by_quad`
integrate the defining integrals in double precision.  None of them shares
code with the package's Gamma/digamma closed form.  `reference_rows` builds
the left-half operator rows per cell, independently of `assemble`'s
one-pass rows, and `reference_dense` the full n x n matrix A + diag(tail)
from them, the matrix the package holds only as its even and odd blocks.
`power_bump_operator` is the exact operator of (x(1-x))^tau by mpmath.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fraclap.exponents import find_tau0
from fraclap.grid import Grid1D
from fraclap.operator import assemble, tail_coefficient

# alpha -> mpmath root of the integral-defined C in (-1, 0), 30 digits
TAU0_REFERENCE = {
    0.25: -0.749999999999999999999999980952,
    0.5: -0.5,
    0.75: -0.25,
}
_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=200)


def _c_by_quad(tau, alpha):
    """C(tau) by adaptive quadrature of its defining integral.

    On (0, 1/2] the second difference (1-t)^tau + (1+t)^tau - 2 is formed as
    2 [expm1(S) cosh(O) + 2 sinh^2(O/2)] from its even and odd log parts, so
    it keeps relative accuracy as t -> 0; on [1/2, 1) the |1-t|^tau
    singularity is an algebraic quadrature weight.
    """
    w = -1.0 - 2.0 * alpha

    def near(t):
        even, odd = 0.5 * tau * math.log1p(-t * t), tau * math.atanh(t)
        second = 2.0 * (math.expm1(even) * math.cosh(odd) + 2.0 * math.sinh(0.5 * odd) ** 2)
        return second * t**w

    total = quad(near, 0.0, 0.5, **_QUAD_OPTS)[0]
    total += quad(lambda t: t**w, 0.5, 1.0, weight="alg", wvar=(0.0, tau), **_QUAD_OPTS)[0]
    total += quad(lambda t: ((1.0 + t) ** tau - 2.0) * t**w, 0.5, 1.0, **_QUAD_OPTS)[0]
    total += quad(lambda t: ((1.0 + t) ** tau - 2.0) * t**w, 1.0, np.inf, **_QUAD_OPTS)[0]
    return total


def _c_tilde_by_quad(beta, alpha):
    """C~(beta) = int_1^inf (t-1)^beta t^(-1-2a) dt by adaptive quadrature."""
    w = -1.0 - 2.0 * alpha
    head = quad(lambda t: t**w, 1.0, 2.0, weight="alg", wvar=(beta, 0.0), **_QUAD_OPTS)[0]
    return head + quad(lambda t: (t - 1.0) ** beta * t**w, 2.0, np.inf, **_QUAD_OPTS)[0]


def _reference_rows(grid, alpha):
    """Left-half rows by the per-cell formula: every far cell takes the logs
    of its own two edge distances, right cells first, then left cells in grid
    order.  The float operations are those of the rows `assemble` folds,
    only grouped per cell, so the blocks folded from these rows must agree
    with `assemble`'s bit for bit."""

    def antideriv(log_lo, log_hi, expo):
        s = expo + 1.0
        dlog = log_hi - log_lo
        if abs(s) < 1e-9:
            return np.exp(s * log_lo) * dlog * (1.0 + 0.5 * s * dlog * (1.0 + s * dlog / 3.0))
        return np.exp(s * log_lo) * np.expm1(s * dlog) / s

    def cell_moments(lo, hi, expo):
        log_lo, log_hi = np.log(lo), np.log(hi)
        m0 = antideriv(log_lo, log_hi, expo)
        m1 = antideriv(log_lo, log_hi, expo + 1.0)
        return m0, (hi * m0 - m1) / (hi - lo), (m1 - lo * m0) / (hi - lo)

    nodes, edges = grid.nodes, grid.cell_edges()
    n, h = nodes.size, grid.n_half
    w0 = -1.0 - 2.0 * alpha
    rows = np.empty((h, n))
    for i in range(h):
        x = nodes[i]
        row = np.zeros(n + 2)
        h_minus, h_plus = x - edges[i], edges[i + 2] - x
        h_m = min(h_minus, h_plus)
        m_sym = 2.0 * h_m ** (2.0 - 2.0 * alpha) / (2.0 - 2.0 * alpha)
        denom = h_minus * h_plus * (h_minus + h_plus)
        row[i] += m_sym * h_plus / denom
        row[i + 2] += m_sym * h_minus / denom
        row[i + 1] -= m_sym * (h_minus + h_plus) / denom
        for h_out, j in ((h_plus, i + 2), (h_minus, i)):
            if h_out > h_m * (1.0 + 1e-14):
                m_sl = float(antideriv(np.log(h_m), np.log(h_out), -2.0 * alpha))
                row[j] += m_sl / h_out
                row[i + 1] -= m_sl / h_out
                break
        m0, near, far = cell_moments(edges[i + 2 : -1] - x, edges[i + 3 :] - x, w0)
        row[i + 2 : n + 1] += near
        row[i + 3 : n + 2] += far
        row[i + 1] -= m0.sum()
        if i >= 1:
            m0, near, far = cell_moments(x - edges[1 : i + 1], x - edges[:i], w0)
            row[0:i] += far
            row[1 : i + 1] += near
            row[i + 1] -= m0.sum()
        row[1] += row[0]
        row[n] += row[n + 1]
        rows[i] = -row[1 : n + 1]
    if n % 2:
        rows[-1, h:] = rows[-1, : h - 1][::-1]
    return rows


def _power_bump_operator(x, alpha, tau):
    """The exact operator of (x(1-x))^tau, zero outside (0, 1), tau > -1, by
    mpmath: K 2F1(1/2 + alpha, alpha - tau; 1/2; (2x - 1)^2) with
    K = 4^(alpha - tau) Gamma(tau + 1) Gamma(1 - alpha) / (alpha Gamma(tau + 1 - alpha))
    (the form of Dyda 2012, in this package's unnormalized convention)."""
    k = (mpmath.mpf(4) ** (alpha - tau) * mpmath.gamma(tau + 1) * mpmath.gamma(1 - alpha)
         / (alpha * mpmath.gamma(tau + 1 - alpha)))
    return float(k * mpmath.hyp2f1(0.5 + alpha, alpha - tau, 0.5, (2 * mpmath.mpf(x) - 1) ** 2))


def _reference_dense(grid, alpha):
    """The full matrix A + diag(tail): the reference rows, the right half
    their mirror image A[n-1-i, n-1-j] = A[i, j], and the tail on the
    diagonal."""
    n, h = grid.n_interior, grid.n_half
    rows = _reference_rows(grid, alpha)
    dense = np.concatenate((rows, rows[: n - h][::-1, ::-1]))
    dense[np.diag_indices(n)] += grid.mirror(tail_coefficient(grid.nodes[:h], alpha))
    return dense


@pytest.fixture(scope="session")
def reference_rows():
    return _reference_rows


@pytest.fixture(scope="session")
def reference_dense():
    return _reference_dense


@pytest.fixture(scope="session")
def power_bump_operator():
    return _power_bump_operator


@pytest.fixture(scope="session")
def tau0_reference():
    return TAU0_REFERENCE


@pytest.fixture(scope="session")
def c_by_quad():
    return _c_by_quad


@pytest.fixture(scope="session")
def c_tilde_by_quad():
    return _c_tilde_by_quad


@pytest.fixture(scope="session")
def kc05():
    return find_tau0(0.5)


@pytest.fixture(scope="session")
def kc_by_alpha():
    return {a: find_tau0(a) for a in (0.25, 0.5, 0.75)}


@pytest.fixture(scope="session")
def grid301():
    return Grid1D.graded(301, 3.0)


@pytest.fixture(scope="session")
def op301(grid301):
    return assemble(grid301, 0.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
