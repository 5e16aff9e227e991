"""Shared fixtures, including the independent kernel-constant oracles.

`tau0_reference` holds mpmath roots of the integral-defined C (see
scripts/make_reference_values.py); `c_by_quad` and `c_tilde_by_quad`
integrate the defining integrals in double precision.  None of them shares
code with the package's Gamma/digamma closed form.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fraclap.exponents import find_tau0
from fraclap.grid import Grid1D
from fraclap.operator import assemble

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
