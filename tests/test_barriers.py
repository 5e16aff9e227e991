"""Barrier constructions and their sign verification."""


from dataclasses import asdict

import numpy as np
import pytest

from fraclap import barriers, cli
from fraclap.barriers import (
    BarrierSpec,
    IndicatorTerm,
    PowerTerm,
    collar_points,
    globalize_pair,
    make_existence_pair,
    make_nonexistence_family,
    make_special_pair,
    nonexistence_search,
    torsion,
    verify_barrier,
)
from fraclap.errors import DomainError, VerificationError
from fraclap.exponents import ProblemParams, classify_regime, classify_zone6
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
    assert asdict(report)["zone"] == f"zone{zone}"


def test_nonexistence_search_at_large_p():
    # at the deepest collar point |v|^p and d^(tau p) each overflow once
    # |tau p| passes about 60; the margins must stay finite and verify
    search = nonexistence_search(0.5, 1.0, -0.9)
    for p in (30.0, 80.0, 120.0):
        zone, role = classify_zone6(p, -0.9, 0.5)
        fam, report = search(ProblemParams(0.5, p), zone, role)
        assert zone == 2 and report.passed and np.all(np.isfinite(report.margins))
        if p == 30.0:
            assert fam.terms[1][0] == 2.0**-20


def test_nonexistence_search_shares_one_ladder_per_tau(monkeypatch):
    """The ladder blocks formed once per tau give, at every p of the seed-0
    sweep grid (and at p = 2, 3, 4 exactly, where numpy's scalar-power fast
    path applies), the margins of each rung evaluated alone by `_margins`,
    bit for bit, and the same first passing rung."""
    alpha, t = 0.5, 1.0
    ps = sorted({*cli._grid_spec("1.2:4:0.1").tolist(), 2.0, 3.0, 4.0})
    seen = []
    real_first_pass = barriers._first_pass
    monkeypatch.setattr(
        barriers, "_first_pass", lambda ladder, margins, *a: seen.append(margins)
        or real_first_pass(ladder, margins, *a)
    )
    for tau in cli._grid_spec("-0.9:-0.1:0.05")[[0, 7, 15]]:
        search = nonexistence_search(alpha, t, tau)
        xs = np.array(sorted({*collar_points().tolist(), *np.linspace(0.1, 0.5, 12).tolist()}))
        power = PowerTerm(DistanceProfile(tau=tau))
        spec = BarrierSpec(alpha, ((t, power), (1.0, IndicatorTerm())))
        (_, lead_vals, lead_ops), (_, ind_vals, ind_ops) = spec.term_arrays(xs)
        s = barriers._scale(xs, tau)
        for p in ps:
            params = ProblemParams(alpha, p)
            f_vals = params.source.value(xs)
            for role, sign in (("super", 1.0), ("sub", -1.0)):
                mus = [sign * 2.0**k for k in range(-barriers.MU_SWEEP_RANGE,
                                                    barriers.MU_SWEEP_RANGE + 1)]
                direct = np.array([
                    barriers._margins(s, (t * lead_vals + mu * ind_vals) / s,
                                      t * lead_ops + mu * ind_ops, f_vals, p)
                    for mu in mus
                ])
                passing = [mu for mu, row in zip(mus, direct)
                           if barriers._passes(row if role == "super" else -row)]
                seen.clear()
                if passing:
                    fam, report = search(params, 1, role)
                    assert fam.terms[1][0] == report.mu == passing[0]
                else:
                    with pytest.raises(VerificationError):
                        search(params, 1, role)
                assert np.array_equal(seen[0], direct)


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
    nodes = grid301.nodes[grid301.d > 1e-4]
    sup_g, sub_g = globalize_pair(pair, params, nodes)
    r_sup = verify_barrier(sup_g, params, "super", nodes)
    r_sub = verify_barrier(sub_g, params, "sub", nodes)
    assert r_sup.passed and r_sub.passed
    assert np.all(sup_g.value(nodes) >= sub_g.value(nodes))


def test_globalize_pair_evaluates_shared_terms_once(grid301, interaction, monkeypatch):
    """sup and sub share their power term, so one globalization evaluates its
    operator once; a second call evaluates it again (nothing is memoized)."""
    params, pair = interaction
    nodes = grid301.nodes[grid301.d > 1e-4]
    calls = []
    real = barriers.eval_on_power

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(barriers, "eval_on_power", counting)
    first = globalize_pair(pair, params, nodes)
    assert len(calls) == 1
    second = globalize_pair(pair, params, nodes)
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
        nodes = grid.nodes[grid.d > 2e-6]
        sup_g, sub_g = globalize_pair(pair, params, nodes)
        for b, sgn in ((sup_g, 1.0), (sub_g, -1.0)):
            vals = np.asarray(b.value(grid.nodes))
            resid = op.shifted_dense(0.0) @ vals + np.sign(vals) * np.abs(vals) ** params.p
            margins = sgn * resid / grid.d ** (b.leading_tau * params.p)
            assert margins[grid.d > 1e-3].min() > 0


# ---------------------------------------------------------------------------
# each ladder search against one-candidate-at-a-time verification
# ---------------------------------------------------------------------------

POWERS = [2.0**k for k in range(-barriers.MU_SWEEP_RANGE, barriers.MU_SWEEP_RANGE + 1)]


def _first_verifying(ladder, spec_of, params, role, xs):
    """The first rung whose single candidate passes `verify_barrier` (so every
    earlier rung fails), or None."""
    for mu in ladder:
        if verify_barrier(spec_of(mu), params, role, xs).passed:
            return mu
    return None


@pytest.mark.parametrize("p,gamma", [(2.5, None), (4.0, -1.2), (4.0, -1.8)])
def test_existence_ladder_matches_single_checks(p, gamma):
    source = SourceField.zero() if gamma is None else SourceField.power_collar(gamma)
    params = ProblemParams(0.5, p, source=source)
    sup, sub = make_existence_pair(params, classify_regime(params))
    base = sup.scaled(1.0 / sup.terms[0][0])
    xs = collar_points()
    mu_sub = _first_verifying(POWERS[::-1], base.scaled, params, "sub", xs)
    mu_sup = _first_verifying(POWERS, base.scaled, params, "super", xs)
    assert sub.terms[0][0] == mu_sub
    # the super amplitude is re-ordered to at least twice the sub amplitude
    assert sup.terms[0][0] == max(mu_sup, 2.0 * mu_sub)


@pytest.mark.parametrize("alpha,p", [(0.5, 2.5), (0.75, 5.0)])
def test_special_ladder_matches_single_checks(alpha, p):
    params = ProblemParams(alpha, p)
    sup, sub = make_special_pair(params, t=1.0)
    (t, lead), (_, second) = sup.terms

    def spec_of(mu):
        return BarrierSpec(alpha, ((t, lead), (-mu, second)))

    xs = collar_points()
    ladder = [0.0] + POWERS  # t**p = 1
    assert -sup.terms[1][0] == _first_verifying(ladder, spec_of, params, "super", xs)
    assert -sub.terms[1][0] == _first_verifying(ladder[1:], spec_of, params, "sub", xs)


def test_nonexistence_ladder_matches_single_checks(kc05):
    cases = [(2.5, -0.3), (4.0, -0.8), (2.5, -0.55), (kc05.p_star, kc05.tau0), (1.5, -0.7)]
    for zone, (p, tau) in enumerate(cases, start=1):
        params = ProblemParams(0.5, p)
        fam, report = make_nonexistence_family(params, t=1.0, tau=tau)
        assert report.zone == f"zone{zone}"
        (t, power), (mu, indicator) = fam.terms

        def spec_of(m):
            return BarrierSpec(0.5, ((t, power), (m, indicator)))

        sign = 1.0 if report.role == "super" else -1.0
        ladder = [sign * v for v in POWERS]
        assert mu == report.mu == _first_verifying(
            ladder, spec_of, params, report.role, report.nodes
        )


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_globalize_ladder_matches_single_checks(grid301, interaction, scale):
    # scale 1: the super-solution sets lambda; scale 2: the sub-solution does
    params, pair = interaction
    sup, sub = (b.scaled(scale) for b in pair)
    nodes = grid301.nodes[grid301.d > 1e-4]
    sup_g, sub_g = globalize_pair((sup, sub), params, nodes)
    lam = -sup_g.terms[-1][0] if len(sup_g.terms) > len(sup.terms) else 0.0
    tor = torsion(0.5)
    first = None
    for cand in [0.0] + [2.0**k for k in range(39)]:
        pair = (sup.with_term(-cand, tor), sub.with_term(cand, tor)) if cand else (sup, sub)
        if all(verify_barrier(b, params, role, nodes).passed
               for b, role in zip(pair, ("super", "sub"))):
            first = cand
            break
    assert first is not None and lam == first
    assert sub_g.describe() == (sub.with_term(lam, tor) if lam else sub).describe()


def test_ladder_error_names_the_last_rung():
    # t = 1e6 swamps every sub-solution amplitude of zone 5 (p = 1.6, tau = -0.75)
    params = ProblemParams(0.5, 1.6)
    assert classify_zone6(1.6, -0.75, 0.5) == (5, "sub")
    xs = np.array(sorted({*collar_points().tolist(), *np.linspace(0.1, 0.5, 12).tolist()}))
    power, indicator = PowerTerm(DistanceProfile(tau=-0.75)), IndicatorTerm()
    last = BarrierSpec(0.5, ((1e6, power), (-(2.0**barriers.MU_SWEEP_RANGE), indicator)))
    r = verify_barrier(last, params, "sub", xs)
    assert not r.passed
    with pytest.raises(VerificationError) as info:
        make_nonexistence_family(params, t=1e6, tau=-0.75)
    assert str(info.value) == (
        "no admissible amplitude found for nonexistence family in zone 5 "
        f"(worst margin {r.worst_margin:.3e} at x={r.worst_x:.3e})"
    )
