"""Closed-form kernel constants against independent references.

Frozen constants come from scripts/make_reference_values.py (mpmath at 40
digits, series-regularized defining integrals); they share nothing with the
package's Gamma/digamma closed form.  The `c_by_quad` and `c_tilde_by_quad`
fixtures (conftest.py) integrate the defining integrals in double precision as
a second check that shares no code with the formula.
"""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclap.errors import DomainError
from fraclap.quadrature import (
    KernelConstants,
    _psi01,
    eval_C,
    eval_C_derivatives,
    eval_C_tilde,
)

# mpmath references (40 digits), see scripts/make_reference_values.py
C_REFERENCE = {
    (-0.5, 0.25): -2.0,
    (-0.25, 0.25): -2.3962804694711844149,
    (-0.9, 0.5): 8.7019451914176251431,
    (-0.999, 0.5): 998.99671341957106521,
    (-0.5, 0.75): 4.0 / 3.0,
    (-0.3, 0.5): -0.68475020055065953715,
    (-0.7, 0.5): 1.5977504679515382918,
    (0.25, 0.5): -math.pi / 4.0,
}
# (tau, alpha) -> (C'(tau), C''(tau)): mpmath derivatives of the integral
C_DERIVATIVE_REFERENCE = {
    (-0.4, 0.5): (-3.3438611738808563144, 12.912613688289950711),
    (-0.9, 0.5): (-102.68908318970699150, 2005.5053725216342824),
    (-0.75, 0.25): (-16.474873499707488057, 131.79898799765990446),
    (-0.1, 0.25): (1.8441730965239436897, 14.048908988363054428),
    (-0.5, 0.75): (-7.3705160196129118097, 21.864083083480172083),
    (0.3, 0.75): (0.32705698517329886652, 6.5569596418083621839),
}
@pytest.mark.parametrize("key", sorted(C_REFERENCE))
def test_eval_c_against_brute_force_reference(key):
    tau, alpha = key
    assert eval_C(tau, alpha) == pytest.approx(C_REFERENCE[key], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("tau", [-0.8, -0.3, 0.2])
def test_eval_c_against_defining_integral(tau, alpha, c_by_quad):
    assert eval_C(tau, alpha) == pytest.approx(c_by_quad(tau, alpha), rel=1e-8, abs=1e-8)


def test_eval_c_zero_identity_exact():
    # for tau = 0 the integrand vanishes on (0,1) and equals -t^(-1-2a) beyond
    assert eval_C(0.0, 0.5) == pytest.approx(-1.0, abs=1e-12)
    assert eval_C(0.0, 0.25) == pytest.approx(-2.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_eval_c_zero_identity_property(alpha):
    assert abs(eval_C(0.0, alpha) + 1.0 / (2.0 * alpha)) < 1e-10


def test_divergence_toward_minus_one():
    # C blows up as tau approaches -1 from above
    c1 = eval_C(-0.9, 0.5)
    c2 = eval_C(-0.999, 0.5)
    assert c2 > c1 > 0
    assert c2 > 900


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_C(-1.0, 0.5)
    with pytest.raises(DomainError):
        eval_C(1.01, 0.5)  # tau must stay below 2*alpha
    with pytest.raises(DomainError):
        eval_C(-0.5, 1.0)
    with pytest.raises(DomainError):
        eval_C_tilde(-1.0, 0.5)
    with pytest.raises(DomainError):
        eval_C_tilde(0.1, 0.5)
    with pytest.raises(DomainError):
        eval_C_derivatives(1.0, 0.5)


def test_derivatives_against_reference_and_finite_differences():
    c1, c2 = eval_C_derivatives(-0.4, 0.5)
    assert c1 == pytest.approx(C_DERIVATIVE_REFERENCE[(-0.4, 0.5)][0], abs=1e-9)
    assert c2 > 0
    h = 1e-4
    fd = (eval_C(-0.4 + h, 0.5) - eval_C(-0.4 - h, 0.5)) / (2 * h)
    assert c1 == pytest.approx(fd, abs=1e-5)
    fd2 = (eval_C(-0.4 + h, 0.5) - 2 * eval_C(-0.4, 0.5) + eval_C(-0.4 - h, 0.5)) / h**2
    assert c2 == pytest.approx(fd2, rel=1e-4)


@pytest.mark.parametrize("key", sorted(C_DERIVATIVE_REFERENCE))
def test_derivatives_against_mpmath_reference(key):
    c1_ref, c2_ref = C_DERIVATIVE_REFERENCE[key]
    c1, c2 = eval_C_derivatives(*key)
    assert c1 == pytest.approx(c1_ref, rel=1e-12, abs=0.0)
    assert c2 == pytest.approx(c2_ref, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.02, max_value=0.98),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_second_derivative_positive(alpha, u):
    # C'' has a pointwise positive integrand on the whole domain (-1, 2*alpha)
    tau = -1.0 + u * (1.0 + 2.0 * alpha)
    assume(-1.0 < tau < 2.0 * alpha)
    _, c2 = eval_C_derivatives(tau, alpha)
    assert c2 > 0


def test_psi01_against_mpmath():
    """digamma and trigamma over (0, 3), the range of their arguments 1 + tau
    and 2 alpha - tau, including the root of digamma near 1.4616; the
    tolerance is absolute where the values are O(1) and relative near x = 0,
    where both grow like powers of 1/x."""
    xs = [0.01 * k for k in range(1, 300)] + [1e-3, 1.4616321449683623, 2.999]
    for x in xs:
        psi, psi1 = _psi01(x)
        ref, ref1 = float(mpmath.digamma(x)), float(mpmath.psi(1, x))
        assert abs(psi - ref) <= 1e-13 * max(1.0, abs(ref))
        assert abs(psi1 - ref1) <= 1e-13 * max(1.0, ref1)


def test_derivative_consistent_with_convexity():
    # C' must increase across the minimum region
    d_lo, _ = eval_C_derivatives(-0.9, 0.5)
    d_hi, _ = eval_C_derivatives(-0.1, 0.5)
    assert d_lo < d_hi


@pytest.mark.parametrize(
    "beta,alpha",
    [(-0.5, 0.5), (-0.9, 0.25), (-0.3, 0.75), (-0.5, 0.25), (-0.1, 0.9)],
)
def test_c_tilde_beta_identity(beta, alpha, c_tilde_by_quad):
    # eval_C_tilde is the Beta value that the substitution t -> 1/s gives;
    # the reference is the quadrature of the defining integral
    assert eval_C_tilde(beta, alpha) == pytest.approx(
        c_tilde_by_quad(beta, alpha), rel=1e-12, abs=0.0
    )


def test_c_tilde_trivial_endpoint():
    assert eval_C_tilde(0.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert eval_C_tilde(-0.9, 0.25) > 0


def test_kernel_constants_type_and_c_tilde_positive(kc05):
    # find_tau0 returns a KernelConstants bundle, and C~ is positive at its alpha
    assert isinstance(kc05, KernelConstants)
    assert eval_C_tilde(-0.5, kc05.alpha) > 0
