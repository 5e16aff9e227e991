"""Barrier constructions and their sign verification."""

import json

import numpy as np
import pytest

from fraclap import barriers
from fraclap.barriers import (
    BarrierSpec,
    IndicatorTerm,
    PowerTerm,
    classify_zone6,
    collar_points,
    globalize_pair,
    make_existence_pair,
    make_nonexistence_family,
    make_special_pair,
    torsion,
    verify_barrier,
)
from fraclap.errors import DomainError
from fraclap.exponents import ProblemParams, classify_regime
from fraclap.fields import SourceField
from fraclap.grid import Grid1D
from fraclap.operator import DistanceProfile, assemble
from fraclap.solvers import solve_linear

TORSION_CONSTANT = {0.25: 2 * np.pi, 0.5: 2 * np.pi, 0.75: 4 * np.pi}


@pytest.fixture(scope="module")
def interaction():
    params = ProblemParams(0.5, 2.5)
    regime = classify_regime(params)
    pair = make_existence_pair(params, regime)
    return params, pair


def test_existence_pair_interaction(interaction):
    params, (sup, sub) = interaction
    assert sup.terms[0][1].tau == pytest.approx(-2.0 / 3.0)
    xs = collar_points()
    r_sup = verify_barrier(sup, params, "super", xs)
    r_sub = verify_barrier(sub, params, "sub", xs)
    assert r_sup.passed and r_sub.passed
    assert np.all(sup.value(xs) >= sub.value(xs))
    # doubling the super amplitude keeps strictly positive margins
    r2 = verify_barrier(sup.scaled(2.0), params, "super", xs)
    assert r2.passed and np.all(r2.margins > 0)


def test_existence_pair_weak_and_strong():
    weak = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.2))
    sup, sub = make_existence_pair(weak, classify_regime(weak))
    assert sup.terms[0][1].tau == pytest.approx(-0.2)
    strong = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.8))
    sup_s, _ = make_existence_pair(strong, classify_regime(strong))
    assert sup_s.terms[0][1].tau == pytest.approx(-0.45)


def test_special_pair(kc05):
    params = ProblemParams(0.5, 2.5)
    sup, sub = make_special_pair(params, t=1.0)
    xs = collar_points()
    assert verify_barrier(sup, params, "super", xs).passed
    assert verify_barrier(sub, params, "sub", xs).passed
    mu1 = -sup.terms[1][0]
    mu2 = -sub.terms[1][0]
    assert mu2 > mu1 >= 0.0
    # the pair gap is an exact power of the gap exponent
    tau1 = min(kc05.tau0 * 2.5 + 1.0, 0.0)
    gap = sup.value(xs) - sub.value(xs)
    slope = np.polyfit(np.log(xs), np.log(gap), 1)[0]
    assert slope == pytest.approx(tau1, abs=1e-6)
    # doubling t doubles the leading term exactly
    sup2, _ = make_special_pair(params, t=2.0)
    lead = PowerTerm(DistanceProfile(tau=kc05.tau0))
    assert sup2.terms[0][0] == pytest.approx(2.0 * sup.terms[0][0])


def test_special_pair_outside_window():
    with pytest.raises(DomainError):
        make_special_pair(ProblemParams(0.5, 5.0), t=1.0)
    with pytest.raises(DomainError):
        make_special_pair(ProblemParams(0.5, 2.5), t=-1.0)


def test_zone_classification(kc05):
    assert classify_zone6(2.5, -0.3, 0.5) == (1, "super")
    assert classify_zone6(4.0, -0.8, 0.5) == (2, "super")
    assert classify_zone6(2.5, -0.55, 0.5) == (3, "sub")
    assert classify_zone6(kc05.p_star, kc05.tau0, 0.5) == (4, "super")
    assert classify_zone6(1.5, -0.7, 0.5) == (5, "sub")
    with pytest.raises(DomainError):
        classify_zone6(2.5, kc05.tau0, 0.5)  # root line off the critical power
    with pytest.raises(DomainError):
        classify_zone6(2.5, -2.0 * 0.5 / 1.5, 0.5)  # interaction-rate line


@pytest.mark.parametrize(
    "p,tau,zone,mu_sign",
    [
        (2.5, -0.3, 1, 1.0),
        (4.0, -0.8, 2, 1.0),
        (2.5, -0.55, 3, -1.0),
        (1.5, -0.7, 5, -1.0),
    ],
)
def test_nonexistence_family_mu_signs(p, tau, zone, mu_sign):
    params = ProblemParams(0.5, p)
    fam, report = make_nonexistence_family(params, t=1.0, tau=tau)
    assert report.passed
    assert report.zone == f"zone{zone}"
    mu = fam.terms[1][0]
    assert np.sign(mu) == mu_sign
    payload = json.loads(report.to_json())
    assert payload["zone"] == f"zone{zone}"


def test_nonexistence_family_zone4(kc05):
    params = ProblemParams(0.5, kc05.p_star)
    fam, report = make_nonexistence_family(params, t=1.0, tau=kc05.tau0)
    assert report.passed and report.zone == "zone4" and fam.terms[1][0] > 0


def test_torsion(grid301):
    x = grid301.nodes
    dyadic = np.arange(1, 64) / 64.0  # 1 - x is exact, so symmetry is too
    for alpha in TORSION_CONSTANT:
        term = torsion(alpha)
        vals = term.value(x)
        assert np.all(vals < 0)
        assert np.array_equal(term.value(dyadic), term.value(dyadic)[::-1])
        assert term.value(1.0 - x) == pytest.approx(vals, rel=1e-12)
        assert np.all(term.value(np.array([-1.0, 0.0, 1.0, 2.0])) == 0.0)
        assert np.all(term.op(x, alpha) == -1.0)
        assert term.describe() == {"kind": "torsion", "alpha": alpha}
        # K_a = L (4x(1-x))^a, computed with mpmath by scripts/make_reference_values.py
        exact = -((4.0 * grid301.d * (1.0 - grid301.d)) ** alpha) / TORSION_CONSTANT[alpha]
        assert vals == pytest.approx(exact, rel=1e-14)
    with pytest.raises(DomainError):
        torsion(0.5).op(x, 0.25)
    with pytest.raises(DomainError):
        torsion(1.0)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_folded_torsion_matches_full_solve(grid301, alpha):
    op = assemble(grid301, alpha)
    folded = grid301.mirror(np.linalg.solve(op.folded(), -np.ones(grid301.n_half)))
    full = solve_linear(op, 0.0, np.ones(grid301.n_interior)).values
    assert np.max(np.abs(folded + full) / np.abs(full)) <= 1e-13


def test_torsion_richardson_reference():
    """Self-convergence of the discrete torsion -solve_linear(op, 0, 1): the
    midpoint value extrapolated over three grids, against the closed form."""
    vals = []
    for n in (251, 501, 1001):
        g = Grid1D.graded(n, 3.0)
        u = -solve_linear(assemble(g, 0.5), 0.0, np.ones(g.n_interior)).values
        vals.append(u[int(np.argmin(np.abs(g.nodes - 0.5)))])
    exact = -1.0 / TORSION_CONSTANT[0.5]  # the closed form at x = 1/2
    # first-order Richardson limit
    limit = vals[2] + (vals[2] - vals[1])
    coarse_err = abs(vals[0] - limit) / abs(limit)
    assert abs(vals[2] - limit) / abs(limit) < 5e-3
    assert abs(vals[2] - exact) / abs(exact) < 5e-3
    assert abs(limit - exact) / abs(exact) < 1e-4
    assert coarse_err < 0.01


def test_globalized_pair(grid301, interaction):
    params, pair = interaction
    tor = torsion(0.5)
    nodes = grid301.nodes[grid301.d > 1e-4]
    sup_g, sub_g = globalize_pair(pair, tor, params, nodes)
    r_sup = verify_barrier(sup_g, params, "super", nodes)
    r_sub = verify_barrier(sub_g, params, "sub", nodes)
    assert r_sup.passed and r_sub.passed
    assert np.all(sup_g.value(nodes) >= sub_g.value(nodes))
    with pytest.raises(DomainError):  # a torsion of another order
        globalize_pair(pair, torsion(0.25), params, nodes)


def test_globalize_pair_evaluates_shared_terms_once(grid301, interaction, monkeypatch):
    """sup and sub share their power term, so one globalization evaluates its
    operator once; a second call evaluates it again (nothing is memoized)."""
    params, pair = interaction
    tor = torsion(0.5)
    nodes = grid301.nodes[grid301.d > 1e-4]
    calls = []
    real = barriers.eval_on_power

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(barriers, "eval_on_power", counting)
    first = globalize_pair(pair, tor, params, nodes)
    assert len(calls) == 1
    second = globalize_pair(pair, tor, params, nodes)
    assert len(calls) == 2
    for a, b in zip(first, second):
        assert a.describe() == b.describe()


def test_verify_barrier_perturbed_sub_fails(interaction):
    params, (sup, sub) = interaction
    xs = collar_points()
    shifted = sub.with_term(50.0, IndicatorTerm())
    r = verify_barrier(shifted, params, "sub", xs)
    assert not r.passed
    assert r.worst_margin < 0


def test_barrier_spec_helpers():
    spec = BarrierSpec(0.5, ((2.0, PowerTerm(DistanceProfile(tau=-0.5))),))
    assert spec.leading_tau == -0.5
    assert spec.scaled(0.5).terms[0][0] == 1.0
    desc = spec.describe()
    assert desc[0]["kind"] == "power_distance"
    with pytest.raises(DomainError):
        verify_barrier(spec, ProblemParams(0.5, 2.0), "sideways", [0.1])


def test_special_pair_indicator_branch():
    # for alpha = 0.75 the gap exponent saturates at zero inside the window,
    # so the second term degenerates to the interval indicator
    params = ProblemParams(0.75, 5.0)
    sup, sub = make_special_pair(params, t=1.0)
    assert isinstance(sup.terms[1][1], IndicatorTerm)
    assert isinstance(sub.terms[1][1], IndicatorTerm)
    xs = collar_points()
    assert verify_barrier(sup, params, "super", xs).passed
    assert verify_barrier(sub, params, "sub", xs).passed


def test_discrete_residual_signs_stable_under_refinement(interaction):
    """The collar verification is grid-free, so its margins cannot move with n;
    what refinement must preserve is the sign of the *discrete* residuals the
    monotone solver leans on.  Unresolved cells below d ~ 1e-3 on these coarse
    grids are excluded: there the piecewise-linear image of d^tau is O(1) off,
    which is exactly why exhaustion shells never free them."""
    from fraclap.operator import assemble

    params, pair = interaction
    for n in (301, 601):
        grid = Grid1D.graded(n, 3.0)
        op = assemble(grid, 0.5)
        tor = torsion(0.5)
        nodes = grid.nodes[grid.d > 2e-6]
        sup_g, sub_g = globalize_pair(pair, tor, params, nodes)
        for b, sgn in ((sup_g, 1.0), (sub_g, -1.0)):
            vals = np.asarray(b.value(grid.nodes))
            resid = op.shifted_dense(0.0) @ vals + np.sign(vals) * np.abs(vals) ** params.p
            margins = sgn * resid / grid.d ** (b.leading_tau * params.p)
            assert margins[grid.d > 1e-3].min() > 0
