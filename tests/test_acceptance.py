"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria pin the library against the closed-form identities and the
desk-scale reproduction of the asymptotic structure: kernel identities, root
quality and limits of the critical exponent, barrier asymptotics, the three
boundary blow-up rates, the exterior reduction, monotone-iteration invariants,
empirical uniqueness, the five-zone map, and operator convergence.

Heavy runs are shared through session fixtures; every tolerance is fixed here,
none is tuned at runtime.
"""

import time

import numpy as np
import pytest

from fraclap.barriers import make_existence_pair, make_nonexistence_family
from fraclap.errors import DomainError
from fraclap.exponents import ProblemParams, classify_regime, classify_zone6, find_tau0
from fraclap.fields import ExteriorData, SourceField
from fraclap.grid import Grid1D, GridFunction
from fraclap.operator import assemble, exterior_potential
from fraclap.quadrature import eval_C, eval_C_derivatives, eval_C_tilde
from fraclap.rates import verify_prop32
from fraclap.solvers import IterationConfig, solve_blowup, solve_linear, solve_semilinear

SHELLS = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384)


def report(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def blowup_grid():
    return Grid1D.graded(2001, 3.0, include=[1.0 / s for s in SHELLS])


def _blowup_cfg(levels, full_of=None):
    levels = tuple(levels)
    if full_of is not None:
        levels = levels + (int(2.0 / full_of.min_spacing),)
    return IterationConfig(max_iters=40000, sup_tol=1e-10, exhaustion_levels=levels)


def _slope(u, grid, lo, hi):
    d = grid.d
    m = (d > lo) & (d < hi) & (u.values > 0)
    return float(np.polyfit(np.log(d[m]), np.log(u.values[m]), 1)[0])


def test_criterion_01_kernel_identity():
    t0 = time.perf_counter()
    worst = max(
        abs(eval_C(0.0, a) + 1.0 / (2.0 * a)) for a in np.arange(0.1, 0.95, 0.1)
    )
    elapsed = time.perf_counter() - t0
    report(
        "1 kernel identity C(0) = -1/(2a)",
        worst < 1e-10 and elapsed < 1.0,
        f"worst |C(0,a)+1/(2a)| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_exterior_kernel_closed_form(c_tilde_by_quad):
    t0 = time.perf_counter()
    worst = 0.0
    for beta in np.linspace(-0.9, -0.1, 9):
        for alpha in np.linspace(0.1, 0.9, 9):
            got = eval_C_tilde(float(beta), float(alpha))
            # eval_C_tilde is the Beta value; the reference is the quadrature
            # of the defining integral
            ref = c_tilde_by_quad(float(beta), float(alpha))
            worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - t0
    report(
        "2 exterior kernel equals Euler Beta",
        worst < 1e-8 and elapsed < 5.0,
        f"worst deviation from the integral {worst:.2e} on 9x9 grid, {elapsed:.2f}s",
    )


def test_criterion_03_root_quality():
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha in (0.25, 0.5, 0.75):
        kc = find_tau0(alpha)
        resid = abs(eval_C(kc.tau0, alpha))
        ok &= resid < 1e-10
        taus = np.linspace(-0.999, -0.001, 200)
        c_vals = np.array([eval_C(float(t), alpha) for t in taus])
        off = np.abs(taus - kc.tau0) > 1e-6
        ok &= bool(np.all((c_vals * (taus - kc.tau0))[off] < 0))
        sample = np.linspace(-0.95, -0.05, 50)
        ok &= all(eval_C_derivatives(float(t), alpha)[1] > 0 for t in sample)
        details.append(f"a={alpha}: |C(tau0)|={resid:.1e}, |tau0-(a-1)|={abs(kc.tau0-(alpha-1)):.1e}")
    elapsed = time.perf_counter() - t0
    report(
        "3 root quality, sign pattern, convexity",
        ok and elapsed < 10.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_criterion_04_limit_trends(tau0_reference):
    alphas = np.arange(0.05, 0.951, 0.05)
    t0s = [find_tau0(float(a)).tau0 for a in alphas]
    increasing = bool(np.all(np.diff(t0s) > 0))
    order = t0s[-1] > t0s[len(t0s) // 2] > t0s[0]
    # the closed-form root against the mpmath roots of the integral-defined C
    dev = max(abs(find_tau0(a).tau0 - ref) for a, ref in tau0_reference.items())
    sign_change = all(
        eval_C(t0 - 1e-6, float(a)) > 0.0 > eval_C(t0 + 1e-6, float(a))
        for a, t0 in zip(alphas, t0s)
    )
    report(
        "4 limit trends of the critical exponent",
        increasing and order and dev < 1e-12 and sign_change,
        f"tau0(0.05)={t0s[0]:.4f} .. tau0(0.95)={t0s[-1]:.4f}, mpmath dev {dev:.1e}",
    )


def test_criterion_05_barrier_asymptotics():
    t0 = time.perf_counter()
    kc = find_tau0(0.5)
    r_i = verify_prop32(0.5, -0.8)
    r_ii = verify_prop32(0.5, -0.2)
    r_iii = verify_prop32(0.5, kc.tau0)
    ok = (
        r_i.case == "i" and r_i.sign_ok and abs(r_i.exponent + 1.8) <= 0.03 * 1.8
        and r_ii.case == "ii" and r_ii.sign_ok and abs(r_ii.exponent + 1.2) <= 0.03 * 1.2
        and r_iii.case == "iii" and r_iii.bound_ok
    )
    elapsed = time.perf_counter() - t0
    report(
        "5 barrier asymptotics (signs and exponents)",
        ok and elapsed < 30.0,
        f"exp(i)={r_i.exponent:.4f}, exp(ii)={r_ii.exponent:.4f}, "
        f"root band bounded={r_iii.bound_ok}, {elapsed:.1f}s",
    )


def test_criterion_06_interaction_rate(blowup_grid):
    t0 = time.perf_counter()
    params = ProblemParams(0.5, 2.5)
    cfg = _blowup_cfg(SHELLS)
    res = solve_blowup(params, blowup_grid, cfg)
    slope = _slope(res.final, blowup_grid, 10.0 / SHELLS[-1], 0.02)
    rel = abs(slope + 2.0 / 3.0) / (2.0 / 3.0)
    positive = bool(np.all(res.final.values[res.final_free] > 0))
    sup_g, sub_g = res.pair_global
    # the pair depends on d alone and is evaluated at the grid's distances
    w = np.asarray(sub_g.value(blowup_grid.d))
    uu = np.asarray(sup_g.value(blowup_grid.d))
    sandwich = bool(
        np.all(res.final.values >= w - 1e-9 * (1 + np.abs(w)))
        and np.all(res.final.values <= uu + 1e-9 * (1 + np.abs(uu)))
    )
    elapsed = time.perf_counter() - t0
    report(
        "6 interaction blow-up rate -2a/(p-1)",
        rel <= 0.05 and positive and res.monotone_in_levels and sandwich and elapsed < 120,
        f"slope {slope:.4f} vs -0.6667 ({rel:.2%}), monotone={res.monotone_in_levels}, "
        f"sandwich={sandwich}, {elapsed:.0f}s",
    )


def test_criterion_07_weak_source_rate(blowup_grid):
    t0 = time.perf_counter()
    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.2, kappa_f=0.25))
    cfg = _blowup_cfg(SHELLS, full_of=blowup_grid)
    res = solve_blowup(params, blowup_grid, cfg)
    slope = _slope(res.final, blowup_grid, 1.5e-3, 1.5e-2)
    rel = abs(slope + 0.2) / 0.2
    elapsed = time.perf_counter() - t0
    report(
        "7 weak-source blow-up rate gamma+2a",
        rel <= 0.05 and elapsed < 120,
        f"slope {slope:.4f} vs -0.2 ({rel:.2%}), {elapsed:.0f}s",
    )


def test_criterion_08_strong_source_rate(blowup_grid):
    t0 = time.perf_counter()
    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.8, kappa_f=1.0))
    cfg = _blowup_cfg(SHELLS, full_of=blowup_grid)
    res = solve_blowup(params, blowup_grid, cfg)
    slope = _slope(res.final, blowup_grid, 3e-4, 2e-3)
    rel = abs(slope + 0.45) / 0.45
    elapsed = time.perf_counter() - t0
    report(
        "8 strong-source blow-up rate gamma/p",
        rel <= 0.05 and elapsed < 120,
        f"slope {slope:.4f} vs -0.45 ({rel:.2%}), {elapsed:.0f}s",
    )


def test_criterion_09_exterior_reduction():
    ext = ExteriorData.power_collar(beta=-0.5, kappa_g=1.0, eta=0.5)
    d = np.geomspace(1e-4, 1e-2, 50)
    G = exterior_potential(ext, 0.5, d)
    slope = float(np.polyfit(np.log(d), np.log(G), 1)[0])
    rel = abs(slope + 1.5) / 1.5
    report(
        "9 exterior potential rate beta-2a",
        rel <= 0.05,
        f"slope {slope:.4f} vs -1.5 ({rel:.2%})",
    )


def test_criterion_10_monotone_invariants():
    rng = np.random.default_rng(1199)
    t0 = time.perf_counter()
    all_ok = True
    for k in range(20):
        alpha = float(rng.uniform(0.15, 0.85))
        p = float(rng.uniform(1.3, 4.0))
        grid = Grid1D.graded(int(rng.integers(60, 120)) * 2 + 1, float(rng.uniform(1.5, 3.0)))
        op = assemble(grid, alpha)
        xs = grid.nodes[:: max(1, grid.n_interior // 16)]
        fs = rng.uniform(0.2, 3.0, xs.size)
        source = SourceField(kind="tabulated", table_x=tuple(xs), table_f=tuple(fs))
        params = ProblemParams(alpha, p, source=source)
        f_vals = source.value(grid.nodes)
        # maximum principle of the linear solve
        u_lin = solve_linear(op, float(rng.uniform(0.0, 2.0)), f_vals)
        mp_ok = bool(np.all(u_lin.values >= 0))
        sub = GridFunction.zeros(grid)
        super_ = solve_linear(op, 0.0, f_vals)
        cfg = IterationConfig(max_iters=4000, sup_tol=1e-10)
        u, trace = solve_semilinear(params, op, sub, super_, cfg)
        stopped = trace.sup_changes[-1] < cfg.sup_tol * (1.0 + np.max(np.abs(u.values)))
        cfg_ok = stopped and trace.final_residual < 10 * cfg.sup_tol
        all_ok &= mp_ok and cfg_ok
    elapsed = time.perf_counter() - t0
    report(
        "10 monotone-iteration invariants on 20 random configurations",
        all_ok,
        f"all monotone, residual < 10*sup_tol, max principle; {elapsed:.0f}s",
    )


def test_criterion_11_empirical_uniqueness(blowup_grid):
    t0 = time.perf_counter()
    params = ProblemParams(0.5, 2.5)
    regime = classify_regime(params)
    sup, _ = make_existence_pair(params, regime)
    # amplitude of the boundary profile, computable from the kernel constant;
    # sub-solutions sharp at the collar make the exhaustion data error small
    amp = eval_C(-2.0 / 3.0, 0.5) ** (1.0 / 1.5)
    unit = sup.scaled(1.0 / sup.terms[0][0])
    w1 = unit.scaled(amp * (1.0 - 2.5e-4))
    w2 = unit.scaled(amp * (1.0 - 5.0e-4))
    from fraclap.barriers import collar_points, verify_barrier

    xs = collar_points()
    assert verify_barrier(w1, params, "sub", xs).passed
    assert verify_barrier(w2, params, "sub", xs).passed
    cfg = _blowup_cfg(SHELLS)
    res1 = solve_blowup(params, blowup_grid, cfg, pair=(sup, w1))
    res2 = solve_blowup(params, blowup_grid, cfg, pair=(sup, w2))
    mask = blowup_grid.d > 0.05
    gap = float(np.max(np.abs(res1.final.values[mask] - res2.final.values[mask])))
    elapsed = time.perf_counter() - t0
    report(
        "11 empirical uniqueness across admissible sub-amplitudes",
        gap < 1e-3,
        f"sup gap on d>0.05: {gap:.2e} for amplitudes {w1.terms[0][0]:.6f} / "
        f"{w2.terms[0][0]:.6f}, {elapsed:.0f}s",
    )


def test_criterion_12_zone_map(kc05):
    t0 = time.perf_counter()
    alpha = 0.5
    p_low = 1.0 + 2.0 * alpha
    ps = np.round(np.arange(1.2, 4.001, 0.1), 10)
    step = 0.1

    def family_role(p, tau):
        try:
            zone, role = classify_zone6(float(p), float(tau), 0.5)
        except DomainError:
            return None, None, False
        params = ProblemParams(alpha, float(p))
        fam, rep = make_nonexistence_family(params, t=1.0, tau=float(tau))
        mu = fam.terms[1][0]
        sign_ok = (mu > 0) if role == "super" else (mu < 0)
        return zone, role, rep.passed and sign_ok

    # row above the root: zone 1 everywhere
    row_a = [family_role(p, kc05.tau0 + 0.05) for p in ps]
    zone1_ok = all(z == 1 and ok for z, _, ok in row_a)

    # row just below the root: zones 5 -> 3 -> 2 with the flips at the
    # advertised powers
    tau_b = kc05.tau0 - 0.002
    row_b = [family_role(p, tau_b) for p in ps]
    zones_b = [z for z, _, _ in row_b]
    verified_b = all(ok for z, _, ok in row_b if z is not None)
    flip_53 = next(ps[i] for i, z in enumerate(zones_b) if z not in (5, None))
    last3 = max(ps[i] for i, z in enumerate(zones_b) if z == 3)
    first2 = next(ps[i] for i, z in enumerate(zones_b) if z == 2)
    trans_low_ok = abs(flip_53 - p_low) <= step + 1e-9
    trans_star_ok = abs(first2 - kc05.p_star) <= step + 1e-9 and last3 < first2

    # the critical corner point itself
    z4, role4, ok4 = family_role(kc05.p_star, kc05.tau0)
    elapsed = time.perf_counter() - t0
    covered = {1, 2, 3, 5} <= set(zones_b + [z for z, _, _ in row_a]) | {z4}
    report(
        "12 five-zone map with transitions at 1+2a and p*",
        zone1_ok and verified_b and trans_low_ok and trans_star_ok
        and z4 == 4 and ok4 and covered,
        f"zone5->3 near p={flip_53:.2f} (expect {p_low}), zone3->2 near p={first2:.2f} "
        f"(expect {kc05.p_star:.3f}), corner zone4 verified={ok4}, {elapsed:.0f}s",
    )


def test_criterion_13_operator_convergence():
    t0 = time.perf_counter()
    # independent quadrature reference for the smooth bump (mpmath, frozen)
    reference = {
        0.2: -2.57794842626589182,
        0.35: 7.54894507346770296,
        0.5: 12.8,
        0.65: 7.54894507346770296,
        0.8: -2.57794842626589182,
    }
    probes = sorted(reference)
    errs = []
    for n in (501, 1001, 2001, 3999):
        grid = Grid1D.graded(n, 3.0, include=probes)
        op = assemble(grid, 0.5)
        u = GridFunction(grid, (4 * grid.nodes * (1 - grid.nodes)) ** 3)
        out = op.apply(u)
        err = max(
            abs(out.values[int(np.argmin(np.abs(grid.nodes - px)))] - ref)
            for px, ref in reference.items()
        )
        errs.append(err)
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    elapsed = time.perf_counter() - t0
    report(
        "13 operator convergence under grid doubling",
        all(r >= 1.8 for r in ratios),
        f"errors {['%.2e' % e for e in errs]}, ratios {['%.2f' % r for r in ratios]}, "
        f"{elapsed:.0f}s",
    )
