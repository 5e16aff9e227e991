"""Root finding for the critical exponent and regime classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.errors import AmbiguousRegimeError, DomainError
from fraclap.exponents import (
    ProblemParams,
    RegimeZone,
    classify_regime,
    find_tau0,
    special_window,
)
from fraclap.fields import SourceField
from fraclap.quadrature import eval_C


def test_root_quality(kc05):
    assert -1.0 < kc05.tau0 < 0.0
    assert abs(eval_C(kc05.tau0, 0.5)) < 1e-13
    assert kc05.p_star == pytest.approx(1.0 - 1.0 / kc05.tau0)


def test_p_star_exceeds_lower_power_bound(kc_by_alpha):
    for alpha, kc in kc_by_alpha.items():
        assert kc.p_star > 1.0 + 2.0 * alpha


def test_tau0_matches_mpmath_root_with_sign_change(tau0_reference):
    # the closed-form root is compared with the mpmath root of the
    # integral-defined C, and C changes sign across it
    for alpha, ref in tau0_reference.items():
        t0 = find_tau0(alpha).tau0
        assert abs(t0 - ref) < 1e-15
        assert eval_C(t0 - 1e-6, alpha) > 0.0 > eval_C(t0 + 1e-6, alpha)


def test_sign_structure(kc05):
    taus = np.linspace(-0.999, -0.001, 200)
    c_vals = np.array([eval_C(t, 0.5) for t in taus])
    prod = c_vals * (taus - kc05.tau0)
    off_root = np.abs(taus - kc05.tau0) > 1e-6
    assert np.all(prod[off_root] < 0)
    # exactly one sign change on the grid
    assert np.count_nonzero(np.diff(np.sign(c_vals)) != 0) == 1


def test_limit_trends():
    # tau0 approaches 0 as alpha -> 1 and -1 as alpha -> 0
    t = {a: find_tau0(a).tau0 for a in (0.01, 0.1, 0.9, 0.99)}
    assert t[0.99] > t[0.9] > t[0.1] > t[0.01]
    assert t[0.99] > -0.05
    assert t[0.01] < -0.95


def test_tau0_and_p_star_closed_form_identity(kc_by_alpha):
    # tau0 = alpha - 1 is an identity of the closed form of C, asserted exactly
    # here; test_tau0_matches_mpmath_root_with_sign_change checks it against
    # the mpmath roots of the integral
    for alpha, kc in kc_by_alpha.items():
        assert kc.tau0 == alpha - 1.0
        assert kc.p_star == (1.0 + alpha) / (1.0 - alpha)


def test_classify_interaction():
    rep = classify_regime(ProblemParams(0.5, 2.5))
    assert rep.zone is RegimeZone.EXISTENCE_INTERACTION
    assert rep.predicted_exponent == pytest.approx(-2.0 / 3.0)


def test_classify_weak_source():
    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.2))
    rep = classify_regime(params)
    assert rep.zone is RegimeZone.WEAK_SOURCE
    assert rep.predicted_exponent == pytest.approx(-0.2)


def test_classify_strong_source():
    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.8))
    rep = classify_regime(params)
    assert rep.zone is RegimeZone.STRONG_SOURCE
    assert rep.predicted_exponent == pytest.approx(-0.45)


def test_zero_amplitude_source_classifies_as_source_free():
    # f = 0 d^gamma is no source: gamma plays no part in the zone
    for p in (2.5, 4.0):
        zero = ProblemParams(0.5, p, source=SourceField.power_collar(-1.8, kappa_f=0.0))
        assert classify_regime(zero) == classify_regime(ProblemParams(0.5, p))


def test_weak_range_source_at_interaction_power_honours_tau():
    # gamma = -1.2 is in the weak range at p = 2.5 < p* = 3, where the
    # interaction rate -2/3 prevails: any other rate d^tau is excluded
    params = ProblemParams(0.5, 2.5, source=SourceField.power_collar(-1.2))
    rep = classify_regime(params, tau=-0.3)
    assert rep.zone is RegimeZone.UNCLASSIFIED and rep.predicted_exponent is None
    assert "rate d^-0.3 is excluded" in rep.notes
    rep = classify_regime(params, tau=-2.0 / 3.0)
    assert rep.zone is RegimeZone.EXISTENCE_INTERACTION
    assert rep.predicted_exponent == pytest.approx(-2.0 / 3.0)


def test_classify_nonexistence_cases():
    rep = classify_regime(ProblemParams(0.5, 1.5), tau=-0.3)
    assert rep.zone is RegimeZone.NONEXISTENCE_III
    rep = classify_regime(ProblemParams(0.5, 5.0), tau=-0.3)
    assert rep.zone is RegimeZone.NONEXISTENCE_II
    rep = classify_regime(ProblemParams(0.5, 2.5), tau=-0.3)
    assert rep.zone is RegimeZone.NONEXISTENCE_I


def test_weak_source_left_endpoint_closed():
    # gamma exactly at -2a - 2a/(p-1) belongs to the weak range
    p = 4.0
    gamma = -1.0 - 1.0 / (p - 1.0)
    rep = classify_regime(ProblemParams(0.5, p, source=SourceField.power_collar(gamma)))
    assert rep.zone is RegimeZone.WEAK_SOURCE


def test_boundary_ties_are_reported(kc05):
    with pytest.raises(AmbiguousRegimeError):
        classify_regime(ProblemParams(0.5, 1.0 + 2.0 * 0.5))
    with pytest.raises(AmbiguousRegimeError):
        classify_regime(ProblemParams(0.5, kc05.p_star))
    with pytest.raises(AmbiguousRegimeError):
        # gamma at the open weak-source upper endpoint
        classify_regime(ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.0)))


def test_special_window(kc05):
    window = special_window(ProblemParams(0.5, 2.5))
    assert window is not None
    lo, hi = window
    assert lo < hi
    assert hi == pytest.approx(kc05.p_star)
    mid = 0.5 * (lo + hi)
    rep = classify_regime(ProblemParams(0.5, mid), tau=kc05.tau0)
    assert rep.zone is RegimeZone.SPECIAL_TAU0


def test_special_window_degenerate_limit():
    # as tau0 = alpha - 1 tends to 0 the window right endpoint runs away to
    # +infinity: at alpha = 0.9999 the root is tau0 = -1e-4
    assert find_tau0(0.9999).tau0 == pytest.approx(-1e-4)
    window = special_window(ProblemParams(0.9999, 2.0))
    assert window is not None and window[1] > 1e3


def test_domain_validation():
    with pytest.raises(DomainError):
        ProblemParams(1.2, 2.0)
    with pytest.raises(DomainError):
        ProblemParams(0.5, 0.9)
    with pytest.raises(DomainError):
        ProblemParams(0.5, 2.5, source=SourceField.power_collar(-2.5))
    with pytest.raises(DomainError):
        classify_regime(ProblemParams(0.5, 2.5), tau=-1.5)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=1.05, max_value=6.0),
    st.one_of(st.none(), st.floats(min_value=-1.9, max_value=-0.05)),
    st.one_of(st.none(), st.floats(min_value=-0.95, max_value=-0.05)),
)
def test_classification_is_a_partition(p, gamma, tau):
    """Every sampled point gets exactly one zone or an explicit tie report."""
    try:
        source = SourceField.zero() if gamma is None else SourceField.power_collar(gamma)
        rep = classify_regime(ProblemParams(0.5, p, source=source), tau=tau)
    except AmbiguousRegimeError:
        return
    assert rep.zone in RegimeZone
