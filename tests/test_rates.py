"""Boundary-rate fitting and the barrier-asymptotics reproduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap.errors import DomainError
from fraclap.grid import Grid1D, GridFunction
from fraclap.rates import _fit_line, check_band, fit_exponent, verify_prop32


@pytest.fixture(scope="module")
def grid():
    return Grid1D.graded(801, 3.0)


def test_exact_power(grid):
    u = GridFunction(grid, grid.d**-0.5)
    fit = fit_exponent(u, (1e-4, 1e-2))
    assert fit.exponent == pytest.approx(-0.5, abs=1e-13)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.band[0] == pytest.approx(1.0, rel=1e-9)
    assert fit.verified
    # one pooled line: on the mirrored grid its slope is the mean of the two
    # collars' slopes, here of a profile that differs between the collars
    x, d = grid.nodes, grid.d
    v = d**-0.5 * (1.0 + 0.5 * x)
    sel = (d > 1e-4) & (d < 1e-2)
    sides = [np.polyfit(np.log(d[s]), np.log(v[s]), 1)[0] for s in (sel & (x < 0.5), sel & (x > 0.5))]
    assert sides[0] != pytest.approx(sides[1], abs=1e-3)
    pooled = fit_exponent(GridFunction(grid, v), (1e-4, 1e-2)).exponent
    assert pooled == pytest.approx(np.mean(sides), abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-1.5, max_value=0.5))
def test_exact_power_property(tau):
    g = Grid1D.graded(401, 3.0)
    vals = np.maximum(g.d, 1e-300) ** tau
    fit = fit_exponent(GridFunction(g, vals), (1e-4, 1e-2))
    assert abs(fit.exponent - tau) < 1e-13


def test_closed_form_line_is_least_squares():
    """The closed-form line both fits share is the least-squares line of
    np.polyfit, on random data of 2 to 400 points."""
    rng = np.random.default_rng(7)
    for size in list(range(2, 12)) + [25, 100, 400]:
        x = rng.uniform(-12.0, 2.0, size)
        y = rng.uniform(-3.0, 3.0) * x + rng.normal(0.0, rng.uniform(0.01, 10.0), size)
        want = np.polyfit(x, y, 1)
        assert _fit_line(x, y) == pytest.approx(tuple(want), rel=1e-12, abs=1e-12)


def test_perturbed_power(grid):
    u = GridFunction(grid, grid.d**-0.5 * (1.0 + 0.1 * grid.d**0.3))
    fit = fit_exponent(u, (1e-4, 1e-2))
    assert abs(fit.exponent + 0.5) < 0.02


def test_window_shrink_consistency(grid):
    u = GridFunction(grid, grid.d**-0.5 * (1.0 + 0.1 * grid.d**0.3))
    wide = fit_exponent(u, (1e-4, 1e-2)).exponent
    deep = fit_exponent(u, (1e-5, 1e-3)).exponent
    assert abs(wide - deep) < 0.02


def test_fit_guards(grid):
    u = GridFunction(grid, grid.d**-0.5)
    with pytest.raises(DomainError):
        fit_exponent(u, (0.4985, 0.4995))  # not enough nodes
    with pytest.raises(DomainError):
        fit_exponent(GridFunction(grid, u.values - 1e4), (1e-4, 1e-2))  # nonpositive
    with pytest.raises(DomainError):
        fit_exponent(u, (1e-2, 1e-4))


def test_band_pure_power(grid):
    u = GridFunction(grid, 3.0 * grid.d**-0.4)
    bmin, bmax, ok = check_band(u, -0.4, (1e-4, 1e-2))
    assert ok
    assert bmin == pytest.approx(3.0, rel=1e-12)
    assert bmax == pytest.approx(3.0, rel=1e-12)


def test_band_mismatched_power_flag(grid):
    # exponent off by 0.8: ratio over three decades is 10^2.4 >> 100
    u = GridFunction(grid, grid.d**-0.9)
    bmin, bmax, ok = check_band(u, -0.1, (1e-5, 1e-2))
    assert not ok
    assert bmax / bmin > 100


def test_prop32_below_and_above_root():
    rep_i = verify_prop32(0.5, -0.8)
    assert rep_i.case == "i" and rep_i.passed
    assert rep_i.exponent == pytest.approx(-1.8, rel=0.03)
    rep_ii = verify_prop32(0.5, -0.2)
    assert rep_ii.case == "ii" and rep_ii.passed
    assert rep_ii.exponent == pytest.approx(-1.2, rel=0.03)


def test_prop32_at_root(kc05):
    rep = verify_prop32(0.5, kc05.tau0)
    assert rep.case == "iii"
    assert rep.bound_ok and rep.passed


def test_prop32_sign_flip_at_root(kc05):
    lo = verify_prop32(0.5, kc05.tau0 - 0.01)
    hi = verify_prop32(0.5, kc05.tau0 + 0.01)
    assert lo.case == "i" and hi.case == "ii"
    assert lo.sign_ok and hi.sign_ok


def test_prop32_guards():
    with pytest.raises(DomainError):
        verify_prop32(0.5, -1.5)
