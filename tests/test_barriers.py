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
from fraclap.operator import DistanceProfile, assemble, assemble_centre_out
from fraclap.solvers import IterationConfig, solve_blowup, solve_linear

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
    (search,) = nonexistence_search(0.5, 1.0, [-0.9])
    for p in (30.0, 80.0, 120.0):
        zone, role = classify_zone6(p, -0.9, 0.5)
        fam, report = search(ProblemParams(0.5, p), zone, role)
        assert zone == 2 and report.passed and np.all(np.isfinite(report.margins))
        if p == 30.0:
            assert fam.terms[1][0] == 2.0**-20


def test_nonexistence_search_shares_one_ladder_per_tau(monkeypatch):
    """The ladder blocks formed once per tau, from one operator evaluation
    for all three tau, give, at every p of the seed-0 sweep grid (and at
    p = 2, 3, 4 exactly, where numpy's scalar-power fast path applies), the
    margins of each rung of a single-tau spec evaluated alone by `_margins`,
    bit for bit, and the same first passing rung."""
    alpha, t = 0.5, 1.0
    ps = sorted({*cli._grid_spec("1.2:4:0.1").tolist(), 2.0, 3.0, 4.0})
    seen = []
    real_first_pass = barriers._first_pass
    monkeypatch.setattr(
        barriers, "_first_pass", lambda ladder, margins, *a: seen.append(margins)
        or real_first_pass(ladder, margins, *a)
    )
    taus = cli._grid_spec("-0.9:-0.1:0.05")[[0, 7, 15]].tolist()
    for tau, search in zip(taus, nonexistence_search(alpha, t, taus)):
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
        vals = torsion(alpha, x)
        assert np.all(vals < 0)
        assert np.array_equal(torsion(alpha, dyadic), torsion(alpha, dyadic)[::-1])
        assert torsion(alpha, 1.0 - x) == pytest.approx(vals, rel=1e-12)
        assert np.all(torsion(alpha, np.array([-1.0, 0.0, 1.0, 2.0])) == 0.0)
        # K_a = L (4x(1-x))^a, computed with mpmath by scripts/make_reference_values.py
        exact = -((4.0 * grid301.d * (1.0 - grid301.d)) ** alpha) / TORSION_CONSTANT[alpha]
        assert vals == pytest.approx(exact, rel=1e-14)
    for alpha in (0.0, 1.0):
        with pytest.raises(DomainError):
            torsion(alpha, x)


@pytest.mark.parametrize("alpha", [0.25, 0.75])
def test_folded_torsion_matches_full_solve(grid301, alpha):
    centre_out = np.linalg.solve(assemble_centre_out(grid301, alpha), -np.ones(grid301.n_half))
    folded = grid301.mirror(centre_out[::-1])
    full = solve_linear(assemble(grid301, alpha), 0.0, np.ones(grid301.n_interior)).values
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


def _centre_out(grid, alpha=0.5):
    """The left-half nodes and the folded operator in centre-out order (by
    decreasing d): the system `solve_blowup` globalizes on."""
    return grid.nodes[: grid.n_half][::-1], assemble_centre_out(grid, alpha)


def _discrete_margins(v, tau, params, x, A, rows):
    """Super-signed margins (A v + |v|^(p-1) v - f) / d^(tau p) of one
    candidate's values v on the first `rows` rows of the centre-out system
    (x = d)."""
    head = v[:rows]
    resid = A[:rows] @ v + np.sign(head) * np.abs(head) ** params.p - params.source.value(x[:rows])
    return resid / x[:rows] ** (tau * params.p)


def _globalized(pair, lam, alpha, x, c=1.0):
    """(U, W) = (sup - lam V, c sub + lam V) at x, formed from the collar pair."""
    sup, sub = pair
    tor = torsion(alpha, x)
    return sup.value(x) - lam * tor, c * sub.value(x) + lam * tor


def test_globalized_pair(grid301, interaction):
    params, pair = interaction
    x, A = _centre_out(grid301)
    rows = int(np.count_nonzero(x > 1e-4))
    (U, W), (r_sup, r_sub) = globalize_pair(pair, params, x, A, rows, rows)
    assert r_sup.mu == r_sub.mu == 4.0
    # W = c sub + lambda V, with the scale c the sub report records
    sup_u, sub_w = _globalized(pair, r_sup.mu, params.alpha, x, r_sub.scale)
    assert np.array_equal(U, sup_u) and np.array_equal(W, sub_w)
    sup_m = _discrete_margins(U, pair[0].leading_tau, params, x, A, rows)
    sub_m = -_discrete_margins(W, pair[1].leading_tau, params, x, A, rows)
    assert sup_m.min() >= -barriers.TOL_REL
    assert sub_m.min() >= -barriers.TOL_REL
    assert np.all(U >= W)
    # the reports are those of the chosen rung on the rows checked
    for r, m, role in ((r_sup, sup_m, "super"), (r_sub, sub_m, "sub")):
        assert r.role == role and r.passed
        assert r.margins.shape == (rows,) and np.array_equal(r.nodes, x[:rows])
        assert r.worst_margin == pytest.approx(m.min(), rel=1e-12)
        assert r.worst_x == x[:rows][np.argmin(r.margins)]


def test_blowup_evaluates_the_barrier_operator_once(grid301, interaction, monkeypatch):
    """The only grid-free operator evaluation of a blow-up solve is the
    existence pair's, on the 64 collar points: the pair is globalized on the
    assembled system."""
    params, _ = interaction
    calls = []
    real = barriers.eval_on_power

    def counting(tau, alpha, x):
        calls.append(np.array(x, dtype=float))
        return real(tau, alpha, x)

    monkeypatch.setattr(barriers, "eval_on_power", counting)
    solve_blowup(params, grid301, IterationConfig(max_iters=5000))
    assert len(calls) == 1
    assert np.array_equal(calls[0], collar_points())


def test_globalize_failure_names_the_sub_node(interaction):
    """On the whole n = 2001 folded system, W = mu d^tau fails the discrete
    sub-solution inequality at the deepest node, d = 5e-10, for every lambda
    (the constant extrapolation of the boundary cell makes its discrete
    operator positive there), and the error names the role and that d."""
    params, pair = interaction
    grid = Grid1D.graded(2001, 3.0)
    assert grid.nodes[0] == pytest.approx(5e-10, rel=0.01)
    x, A = _centre_out(grid, params.alpha)
    with pytest.raises(VerificationError) as info:
        globalize_pair(pair, params, x, A, x.size, x.size)
    msg = str(info.value)
    assert "sub-solution" in msg and f"d={grid.nodes[0]:.3e}" in msg


def test_verify_barrier_perturbed_sub_fails(interaction):
    params, (sup, sub) = interaction
    xs = collar_points()
    shifted = BarrierSpec(params.alpha, sub.terms + ((50.0, IndicatorTerm()),))
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


def test_discrete_residual_signs_stable_under_refinement(interaction, reference_dense):
    """The collar verification is grid-free, so its margins cannot move with n;
    what refinement must preserve is the sign of the *discrete* residuals the
    monotone solver leans on.  The pair is globalized on each grid's folded
    system over the rows with d > 1e-3; both grids choose the same pair, and
    it keeps its signs on the full system of both.  Unresolved cells below
    d ~ 1e-3 on these coarse grids are excluded: there the piecewise-linear
    image of d^tau is O(1) off, which is exactly why exhaustion shells never
    free them."""
    params, pair = interaction
    grids = [Grid1D.graded(n, 3.0) for n in (301, 601)]
    chosen = []
    for grid in grids:
        x, A = _centre_out(grid)
        rows = int(np.count_nonzero(x > 1e-3))
        _, (r_sup, _) = globalize_pair(pair, params, x, A, rows, rows)
        chosen.append(r_sup.mu)
    assert chosen[0] == chosen[1]
    for grid in grids:
        dense = reference_dense(grid, 0.5)
        values = _globalized(pair, chosen[0], params.alpha, grid.nodes)
        for vals, b, sgn in zip(values, pair, (1.0, -1.0)):
            resid = dense @ vals + np.sign(vals) * np.abs(vals) ** params.p
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
    sup, sub = pair = tuple(b.scaled(scale) for b in pair)
    x, A = _centre_out(grid301)
    rows = int(np.count_nonzero(x > 1e-4))
    (U, W), (r_sup, r_sub) = globalize_pair(pair, params, x, A, rows, rows)
    first = None
    for cand in [0.0] + [2.0**k for k in range(39)]:
        u, w = _globalized(pair, cand, params.alpha, x)
        sup_m = _discrete_margins(u, sup.leading_tau, params, x, A, rows)
        sub_m = -_discrete_margins(w, sub.leading_tau, params, x, A, rows)
        if sup_m.min() >= -barriers.TOL_REL and sub_m.min() >= -barriers.TOL_REL:
            first = cand
            break
    assert first is not None and r_sup.mu == first
    # W = c sub + lambda V, with the scale c the sub report records
    globalized = _globalized(pair, first, params.alpha, x, r_sub.scale)
    assert all(map(np.array_equal, (U, W), globalized))


def _same_globalization(a, b):
    (vals_a, reps_a), (vals_b, reps_b) = a, b
    assert all(np.array_equal(u, v) for u, v in zip(vals_a, vals_b))
    for r, q in zip(reps_a, reps_b):
        assert (r.role, r.mu, r.passed, r.worst_margin, r.worst_x) == (
            q.role, q.mu, q.passed, q.worst_margin, q.worst_x
        )
        assert np.array_equal(r.margins, q.margins) and np.array_equal(r.nodes, q.nodes)


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("scale,lam", [(1.0, 4.0), (2.0, 2.0**17)])
def test_blocked_ladder_matches_the_whole_ladder(grid301, interaction, monkeypatch, block,
                                                 scale, lam):
    """The globalization ladder formed a block of rungs at a time gives the
    bits of the whole 40-rung ladder formed at once: the same lambda, U, W
    and reports.  Scale 2 (the sub-solution sets lambda) passes at 2^17,
    beyond the first blocks."""
    params, pair = interaction
    pair = tuple(b.scaled(scale) for b in pair)
    x, A = _centre_out(grid301)
    rows = int(np.count_nonzero(x > 1e-4))
    monkeypatch.setattr(barriers, "LADDER_BLOCK", 40)
    whole = globalize_pair(pair, params, x, A, rows, rows)
    monkeypatch.setattr(barriers, "LADDER_BLOCK", block)
    blocked = globalize_pair(pair, params, x, A, rows, rows)
    _same_globalization(blocked, whole)
    assert blocked[1][0].mu == lam


def test_blocked_ladder_fails_with_the_whole_ladders_message(interaction, monkeypatch):
    # no rung passes on the whole n = 2001 system (see
    # test_globalize_failure_names_the_sub_node): the last block ends on the
    # last rung, so the message is the one-block ladder's
    params, pair = interaction
    x, A = _centre_out(Grid1D.graded(2001, 3.0), params.alpha)
    messages = []
    for block in (40, barriers.LADDER_BLOCK, 3):
        monkeypatch.setattr(barriers, "LADDER_BLOCK", block)
        with pytest.raises(VerificationError) as info:
            globalize_pair(pair, params, x, A, x.size, x.size)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]


@pytest.mark.parametrize("block", [1, 3, 8, 40])
def test_scan_takes_the_first_rung_every_role_passes(monkeypatch, block):
    """`_scan` on synthetic margin rows, a block of rungs at a time: a role
    has the row [r, 0] at a rung r where it passes and [r, -1] where it
    fails.  A broken pass pattern gives its first passing rung in ladder
    order, two roles the first rung both pass, and no passing rung
    (None, the last rung's rows); the rows returned are copies, not views
    of a block."""
    monkeypatch.setattr(barriers, "LADDER_BLOCK", block)
    ladder = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0]
    blocks = []

    def margins_of(*passing):
        def of(col):
            blocks.extend(np.hstack([col, np.isin(col, p) - 1.0]) for p in passing)
            return blocks[-len(passing):]
        return of

    results = [
        barriers._scan(ladder, margins_of([13.0, 23.0, 29.0])),  # ..fail, pass, fail, pass..
        barriers._scan(ladder, margins_of([11.0, 19.0, 23.0], [13.0, 23.0, 29.0])),
        barriers._scan(ladder, margins_of([3.0], [5.0])),
    ]
    assert [(rung, [r.tolist() for r in rows]) for rung, rows in results] == [
        (13.0, [[13.0, 0.0]]),
        (23.0, [[23.0, 0.0]] * 2),
        (None, [[29.0, -1.0]] * 2),
    ]
    assert not any(np.shares_memory(r, b) for _, rows in results for r in rows for b in blocks)


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


# ---------------------------------------------------------------------------
# the sub-solution sharpened at the chosen lambda, W = c sub + lambda V
# ---------------------------------------------------------------------------

SHELLS = (8, 16, 32, 64, 128)

# case: (params, t of the critical-rate family or None for the existence
# pair, whether the schedule ends on a full-depth level)
SHARPENING_CASES = {
    "interaction": (ProblemParams(0.5, 2.5), None, False),
    "weak": (ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.2, 0.25)), None, True),
    "strong": (ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.8)), None, True),
    "special": (ProblemParams(0.5, 2.5), 1.0, False),
    # lambda = 1024: a W sharpened on the collar instead, at free lambda,
    # doubled lambda here and raised the sweeps
    "alpha035": (ProblemParams(0.35, 1.794), None, False),
}


def _sharpening_case(case, grid):
    """(params, collar pair, exhaustion config) of a case on the grid."""
    params, t, full = SHARPENING_CASES[case]
    pair = (make_existence_pair(params, classify_regime(params)) if t is None
            else make_special_pair(params, t))
    levels = SHELLS + ((int(2.0 / grid.min_spacing),) if full else ())
    return params, pair, IterationConfig(max_iters=40000, exhaustion_levels=levels)


@pytest.mark.parametrize("case", SHARPENING_CASES)
def test_sub_scale_keeps_lambda_and_U(grid301, case, monkeypatch):
    """On the rows a solve checks, the scale c leaves lambda and U bit for
    bit as they are at c = 1 (SUB_BACKOFF = 0), keeps 1 <= c < 2 and
    W <= U, and the chosen W passes.  c is the top rung of 2^(j/64), each
    checked singly from the top down, that passes below the bound, backed
    off, and scale_limit is the rung above it (None above rung 63); the
    bound keeps W(c) <= U and |W(c)| <= max(|W(1)|, |U|).  The passing rungs
    run unbroken from rung 0, so a climb from the bottom stops on the same
    rung."""
    params, pair, cfg = _sharpening_case(case, grid301)
    x, A = _centre_out(grid301, params.alpha)
    sub_rows = int(np.count_nonzero(x > 1.0 / SHELLS[-1]))
    super_rows = x.size if cfg.exhaustion_levels[-1] > SHELLS[-1] else sub_rows
    (U, W), (r_sup, r_sub) = globalize_pair(pair, params, x, A, sub_rows, super_rows)
    backoff, rungs = barriers.SUB_BACKOFF, barriers.SUB_LADDER
    monkeypatch.setattr(barriers, "SUB_BACKOFF", 0.0)
    (U1, W1), (r_sup1, r_sub1) = globalize_pair(pair, params, x, A, sub_rows, super_rows)
    assert r_sub1.scale == 1.0 and r_sup.mu == r_sup1.mu == r_sub.mu
    assert np.array_equal(U, U1)
    assert np.array_equal(W1, _globalized(pair, r_sup.mu, params.alpha, x)[1])
    c = r_sub.scale
    assert 1.0 <= c < 2.0 and np.all(W <= U)
    assert np.array_equal(W, _globalized(pair, r_sup.mu, params.alpha, x, c)[1])
    tau = pair[1].leading_tau
    assert r_sub.passed and r_sub.scale_limit == r_sub1.scale_limit
    assert (-_discrete_margins(W, tau, params, x, A, sub_rows)).min() >= -barriers.TOL_REL
    cap = np.maximum(np.abs(W1), np.abs(U))

    def admissible(j):
        w = _globalized(pair, r_sup.mu, params.alpha, x, 2.0 ** (j / rungs))[1]
        passes = (-_discrete_margins(w, tau, params, x, A, sub_rows)).min() >= -barriers.TOL_REL
        return passes and np.all(w <= U) and np.all(np.abs(w) <= cap)

    top = next(j for j in range(rungs - 1, -1, -1) if admissible(j))
    assert r_sub.scale_limit == (2.0 ** ((top + 1) / rungs) if top + 1 < rungs else None)
    assert c == max(1.0, backoff * 2.0 ** (top / rungs))
    climb = 1
    while climb < rungs and admissible(climb):
        climb += 1
    assert climb == top + 1


@pytest.mark.parametrize("case", SHARPENING_CASES)
def test_sub_scale_lifts_the_levels(grid301, case, monkeypatch):
    """Against c = 1 (SUB_BACKOFF = 0): no more sweeps in total, no level
    solution lower, and a full-depth final level, which climbs from 0 under
    the unchanged shift, bit for bit the same."""
    params, pair, cfg = _sharpening_case(case, grid301)
    sharp = solve_blowup(params, grid301, cfg, pair=pair)
    monkeypatch.setattr(barriers, "SUB_BACKOFF", 0.0)
    plain = solve_blowup(params, grid301, cfg, pair=pair)
    assert sharp.sandwich_ok and sharp.monotone_in_levels

    def sweeps(res):
        return sum(lev.trace.iterations for lev in res.levels)

    assert sweeps(sharp) <= sweeps(plain)
    for a, b in zip(sharp.levels, plain.levels):
        assert np.all(a.solution.values >= b.solution.values)
    if cfg.exhaustion_levels[-1] > SHELLS[-1]:
        assert np.array_equal(sharp.final.values, plain.final.values)
