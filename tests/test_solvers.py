"""Linear solve, monotone iteration, and the exhaustion blow-up driver."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from fraclap.barriers import make_special_pair, torsion
from fraclap.errors import ConvergenceError, DomainError
from fraclap.exponents import ProblemParams
from fraclap.fields import ExteriorData, SourceField
from fraclap.grid import Grid1D, GridFunction
from fraclap.operator import assemble, exterior_potential
from fraclap.solvers import (
    BLOCK_CAP,
    IterationConfig,
    _monotone_iterate,
    lu_factor as block_lu_factor,
    lu_solve as block_lu_solve,
    solve_blowup,
    solve_linear,
    solve_semilinear,
)


def bump_vals(x):
    return (4.0 * x * (1.0 - x)) ** 3


def test_solve_linear_trivial(op301, grid301):
    u = solve_linear(op301, 0.0, np.zeros(grid301.n_interior))
    assert u.values == pytest.approx(np.zeros(grid301.n_interior))


def test_solve_linear_is_negative_torsion(op301, grid301):
    """The discrete solution of L u = 1 against the closed-form -V."""
    u = solve_linear(op301, 0.0, np.ones(grid301.n_interior)).values
    rel = np.abs(u + torsion(0.5).value(grid301.d)) / u
    assert rel[int(np.argmin(np.abs(grid301.nodes - 0.5)))] < 2e-3
    assert rel[grid301.d > 1e-3].max() < 1e-2


def test_solve_linear_manufactured(op301, grid301):
    u_star = bump_vals(grid301.nodes)
    shift = 3.0
    rhs = op301.apply(GridFunction(grid301, u_star)).values + shift * u_star
    u = solve_linear(op301, shift, rhs)
    assert np.max(np.abs(u.values - u_star)) < 1e-8


def test_solve_linear_maximum_principle(op301, grid301, rng):
    for _ in range(5):
        rhs = rng.random(grid301.n_interior)
        u = solve_linear(op301, float(rng.random()), rhs)
        assert np.all(u.values >= 0)
    with pytest.raises(DomainError):
        solve_linear(op301, -1.0, np.ones(grid301.n_interior))


def test_solve_linear_factors_in_place():
    """The full solve factors the shifted matrix in place: its peak
    allocation stays near one n x n array, and it matches a plain dense
    solve."""
    import tracemalloc

    grid = Grid1D.graded(601, 3.0)
    op = assemble(grid, 0.5)
    rhs = np.ones(grid.n_interior)
    ref = np.linalg.solve(op.shifted_dense(0.5), rhs)
    tracemalloc.start()
    try:
        u = solve_linear(op, 0.5, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * grid.n_interior**2  # measured 1.17 n^2 doubles
    assert np.max(np.abs(u.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_semilinear_zero_fixed_point(op301, grid301):
    params = ProblemParams(0.5, 2.0)
    zero = GridFunction.zeros(grid301)
    u, trace = solve_semilinear(params, op301, zero, zero, IterationConfig(max_iters=5))
    assert u.values == pytest.approx(np.zeros(grid301.n_interior))
    assert trace.iterations == 1 and trace.sup_changes == [0.0]


def _newton_reference(op, p, f_vals, u0, tol=1e-12):
    """Damped Newton on the same discrete system; independent solve path."""
    A = op.shifted_dense(0.0)
    u = u0.copy()
    for _ in range(100):
        r = A @ u + np.sign(u) * np.abs(u) ** p - f_vals
        J = A + np.diag(p * np.abs(u) ** (p - 1.0))
        step = lu_solve(lu_factor(J), -r)
        t = 1.0
        for _ in range(40):
            cand = u + t * step
            rc = A @ cand + np.sign(cand) * np.abs(cand) ** p - f_vals
            if np.linalg.norm(rc) < np.linalg.norm(r):
                break
            t *= 0.5
        u = u + t * step
        if np.max(np.abs(step)) < tol:
            break
    return u


def test_semilinear_against_newton(op301, grid301):
    # bounded problem: p=2, f = 1, alpha = 0.5
    f_vals = np.ones(grid301.n_interior)
    source = SourceField(kind="tabulated", table_x=(0.25, 0.75), table_f=(1.0, 1.0))
    params = ProblemParams(0.5, 2.0, source=source)
    sub = GridFunction.zeros(grid301)
    super_ = solve_linear(op301, 0.0, f_vals)
    u, trace = solve_semilinear(
        params, op301, sub, super_, IterationConfig(max_iters=2000, sup_tol=1e-12)
    )
    ref = _newton_reference(op301, 2.0, f_vals, super_.values)
    assert np.max(np.abs(u.values - ref)) < 1e-7
    # stopped on the sup-change test; a decreasing step would have raised
    assert trace.sup_changes[-1] < 1e-12 * (1.0 + np.max(np.abs(u.values)))
    # iterates stayed within the sandwich
    assert np.all(u.values >= -1e-12) and np.all(u.values <= super_.values + 1e-9)


def test_semilinear_monotone_trace_and_residual(op301, grid301, rng):
    source = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.5, 2.0))
    params = ProblemParams(0.5, 3.0, source=source)
    sub = GridFunction.zeros(grid301)
    super_ = solve_linear(op301, 0.0, source.value(grid301.nodes))
    cfg = IterationConfig(max_iters=2000, sup_tol=1e-11)
    u, trace = solve_semilinear(params, op301, sub, super_, cfg)
    assert trace.final_residual < 10 * cfg.sup_tol
    assert trace.final_residual_rel <= np.sqrt(cfg.sup_tol)  # the residual gate
    # one recorded change per sweep: the sandwich shift is never rebuilt
    history = trace.sup_changes
    assert len(history) == trace.iterations - trace.shift_rebuilds
    assert history[-1] < cfg.sup_tol * (1.0 + float(np.max(np.abs(u.values))))


def test_semilinear_shift_too_small_raises(op301, grid301):
    # a constant shift of 1e-4 is far below the Lipschitz bound of u^4 on the
    # sandwich range: the second sweep overshoots downward and is refused
    f_vals = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(5.0, 5.0)).value(
        grid301.nodes
    )
    super_ = solve_linear(op301, 0.0, f_vals).values
    lu = lu_factor(op301.shifted_dense(1e-4))
    with pytest.raises(ConvergenceError, match="test: .*decreasing step"):
        _monotone_iterate(
            lambda b: lu_solve(lu, b), 1e-4, lambda u: op301.apply(GridFunction(grid301, u)).values,
            f_vals, 4.0, np.zeros_like(f_vals), IterationConfig(max_iters=50), np.abs(super_),
            "test",
        )


def test_semilinear_factors_once_with_the_sandwich_shift(op301, grid301, monkeypatch):
    import tracemalloc

    import fraclap.solvers as solvers

    calls = []
    real = solvers.lu_factor

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "lu_factor", counting)
    source = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.5, 2.0))
    params = ProblemParams(0.5, 3.0, source=source)
    sub = GridFunction.zeros(grid301)
    super_ = solve_linear(op301, 0.0, source.value(grid301.nodes))
    calls.clear()
    tracemalloc.start()
    try:
        u, trace = solve_semilinear(params, op301, sub, super_, IterationConfig(sup_tol=1e-11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = grid301.n_interior
    assert calls == [(n, n)]
    # the LU overwrites the shifted matrix and the residual uses op.apply:
    # one n x n array at a time (measured 1.32 n^2 doubles at n = 301)
    assert peak < 1.5 * 8 * n**2
    assert trace.shift_rebuilds == 0
    assert trace.sup_changes[-1] < 1e-11 * (1.0 + np.max(np.abs(u.values)))
    assert np.all(u.values <= super_.values)


def test_semilinear_refuses_a_false_super_solution(op301, grid301):
    # super_ = sub = 0 is no super-solution of L u + u^2 = 1: the first sweep
    # leaves the sandwich range instead of returning some u > super_
    source = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(1.0, 1.0))
    params = ProblemParams(0.5, 2.0, source=source)
    zero = GridFunction.zeros(grid301)
    with pytest.raises(ConvergenceError, match="solve_semilinear: an iterate left the sandwich"):
        solve_semilinear(params, op301, zero, zero, IterationConfig(max_iters=50))


def test_blowup_small_interaction(monkeypatch):
    import fraclap.solvers as solvers

    calls = []
    real = solvers.lu_factor

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "lu_factor", counting)
    params = ProblemParams(0.5, 2.5)
    levels = (8, 16, 32)
    grid = Grid1D.graded(401, 3.0, include=[1 / s for s in levels])
    cfg = IterationConfig(max_iters=5000, sup_tol=1e-9, exhaustion_levels=levels)
    res = solve_blowup(params, grid, cfg)
    # one LU of the mirror-folded system serves every exhaustion level
    assert calls == [(grid.n_half, grid.n_half)]
    assert all(lev.trace.shift_rebuilds == 0 for lev in res.levels)
    assert res.monotone_in_levels
    assert res.sandwich_ok
    assert np.all(res.final.values[res.final_free] > 0)
    assert [lev.shell for lev in res.levels] == [8, 16, 32]
    for lev in res.levels:
        assert np.array_equal(lev.solution.values, lev.solution.values[::-1])
    # the pair depends on d alone and is evaluated at the grid's distances
    sup_g, sub_g = res.pair_global
    w = sub_g.value(grid.d)
    u = sup_g.value(grid.d)
    assert np.all(res.final.values >= w - 1e-9 * (1 + np.abs(w)))
    assert np.all(res.final.values <= u + 1e-9 * (1 + np.abs(u)))

    # each level solves its own system, rebuilt here in natural node order
    A = assemble(grid, params.alpha).shifted_dense(0.0)
    f = params.source.value(grid.nodes)
    assert np.array_equal(res.final_free, grid.d > 1 / 32)
    for lev in res.levels:
        free = grid.free_mask(lev.shell)
        v = lev.solution.values[free]
        assert np.array_equal(lev.solution.values[~free], w[~free])
        g = np.sign(v) * np.abs(v) ** params.p
        load = A[np.ix_(free, ~free)] @ w[~free]
        r = A[np.ix_(free, free)] @ v + load + g - f[free]
        scale = 1.0 + np.max(np.abs(f[free] - load - g))
        assert np.max(np.abs(r)) / scale <= 10 * cfg.sup_tol
        # the reported residual is this one, up to summation order
        assert lev.trace.final_residual == pytest.approx(np.max(np.abs(r)), rel=1e-3)


def test_factor_nested_leading_blocks_and_pivot_guard(rng):
    # a row-strictly dominant M-matrix: one block LDU with blocks ending at
    # the level sizes solves every level-aligned leading block
    n = 3 * BLOCK_CAP + 17
    sizes = (5, BLOCK_CAP + 40, BLOCK_CAP + 41, 3 * BLOCK_CAP)
    a = -rng.random((n, n))
    np.fill_diagonal(a, 0.0)
    full = a + np.diag(-a.sum(axis=1) + 1.0 + rng.random(n))
    lu = block_lu_factor(full.copy(), sizes)
    assert set(sizes) < set(lu[1])
    assert max(np.diff(lu[1])) <= BLOCK_CAP
    for m in sizes + (n,):
        b = rng.random(m)
        x = block_lu_solve(lu, b, m)
        ref = np.linalg.solve(full[:m, :m], b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    # not diagonally dominant: no factorization without pivoting is certified
    with pytest.raises(ConvergenceError, match="not diagonally dominant"):
        block_lu_factor(np.array([[1.0, 2.0], [3.0, 1.0]]))


def test_blowup_full_shell_requires_positive_source():
    params = ProblemParams(0.5, 2.5)
    grid = Grid1D.graded(201, 3.0, include=[1 / 8])
    full = int(2.0 / grid.min_spacing)
    cfg = IterationConfig(max_iters=5000, exhaustion_levels=(8, full))
    with pytest.raises(DomainError):
        solve_blowup(params, grid, cfg)


def test_exterior_data_enters_as_source(op301, grid301):
    """Exterior data g reaches the solver only as the source term
    G = exterior_potential(g): the problem with source f and exterior g is the
    zero-exterior problem with source f + G at the nodes.  G > 0 for g > 0, so
    by comparison its solution lies above the g = 0 solution."""
    nodes = grid301.nodes
    G = exterior_potential(ExteriorData.power_collar(beta=-0.5), 0.5, nodes)
    assert np.all(G > 0)
    f_vals = SourceField.power_collar(-0.5).value(nodes)
    cfg = IterationConfig(max_iters=2000, sup_tol=1e-11)

    def solve(source_vals):
        source = SourceField(kind="tabulated", table_x=tuple(nodes), table_f=tuple(source_vals))
        assert np.array_equal(source.value(nodes), source_vals)
        params = ProblemParams(0.5, 3.0, source=source)
        super_ = solve_linear(op301, 0.0, source_vals)
        return solve_semilinear(params, op301, GridFunction.zeros(grid301), super_, cfg)[0]

    u = solve(f_vals + G)
    residual = op301.apply(u).values + u.values**3 - (f_vals + G)
    assert np.max(np.abs(residual)) < 1e-8 * np.max(f_vals + G)
    assert np.all(u.values > solve(f_vals).values)


def test_blowup_full_shell_rejects_negative_tabulated_source():
    source = SourceField(kind="tabulated", table_x=(0.01, 0.5, 0.99), table_f=(1.0, -1.0, 1.0))
    assert not source.sign_nonneg
    assert SourceField(kind="tabulated", table_x=(0.1, 0.9), table_f=(0.0, 2.0)).sign_nonneg
    assert not SourceField.power_collar(-1.2, kappa_f=-1.0).sign_nonneg
    params = ProblemParams(0.5, 2.5, source=source)
    grid = Grid1D.graded(201, 3.0, include=[1 / 8])
    full = int(2.0 / grid.min_spacing)
    cfg = IterationConfig(max_iters=5000, exhaustion_levels=(8, full))
    with pytest.raises(DomainError, match="full-depth"):
        solve_blowup(params, grid, cfg)


def test_blowup_rejects_asymmetric_tabulated_source():
    source = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.5, 2.0))
    params = ProblemParams(0.5, 2.5, source=source)
    grid = Grid1D.graded(201, 3.0, include=[1 / 8])
    with pytest.raises(DomainError, match="symmetric"):
        solve_blowup(params, grid, IterationConfig(exhaustion_levels=(8,)))


def test_blowup_path_stays_below_one_dense_matrix():
    """Assembled inside solve_blowup, the operator is folded and released:
    the call's peak allocation stays below one n x n float64 matrix."""
    import tracemalloc

    params = ProblemParams(0.5, 2.5)
    levels = (8, 16, 32)
    grid = Grid1D.graded(801, 3.0, include=[1 / s for s in levels])
    cfg = IterationConfig(max_iters=5000, sup_tol=1e-9, exhaustion_levels=levels)
    warm = solve_blowup(params, grid, cfg)  # first-call allocations stay untraced
    tracemalloc.start()
    try:
        res = solve_blowup(params, grid, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.n_interior**2
    assert np.array_equal(res.final.values, warm.final.values)


def test_blowup_rejects_nonexistence_zone():
    params = ProblemParams(0.5, 5.0)  # beyond the critical power, no source
    grid = Grid1D.graded(201, 3.0, include=[1 / 8])
    with pytest.raises(DomainError):
        solve_blowup(params, grid, IterationConfig(exhaustion_levels=(8,)))


def test_blowup_skips_a_shell_with_no_nodes():
    # no node has d > 1/2: shell 2 frees nothing and yields no level
    params = ProblemParams(0.5, 2.5)
    grid = Grid1D.graded(401, 3.0, include=[1 / 2, 1 / 8, 1 / 16])

    def run(levels):
        cfg = IterationConfig(max_iters=5000, sup_tol=1e-9, exhaustion_levels=levels)
        return solve_blowup(params, grid, cfg)

    skipped, ref = run((2, 8, 16)), run((8, 16))
    assert [lev.shell for lev in skipped.levels] == [8, 16]
    for lev, want in zip(skipped.levels, ref.levels):
        assert np.array_equal(lev.solution.values, want.solution.values)
    assert skipped.monotone_in_levels and skipped.sandwich_ok
    with pytest.raises(DomainError, match="no nodes inside the deepest exhaustion shell"):
        run((2,))


def test_iteration_config_validation():
    with pytest.raises(DomainError):
        IterationConfig(exhaustion_levels=(8, 8))
    with pytest.raises(DomainError, match="at least one shell"):
        IterationConfig(exhaustion_levels=())
    for levels in ((1, 8), (0,), (-4, 8)):
        with pytest.raises(DomainError, match="shell >= 2"):
            IterationConfig(exhaustion_levels=levels)
    with pytest.raises(DomainError):
        IterationConfig(sup_tol=0.0)


def test_randomized_monotone_invariants(rng):
    """Randomized admissible bounded configurations: monotone iterates,
    small final residual, and the discrete maximum principle."""
    for _ in range(6):
        alpha = float(rng.uniform(0.2, 0.8))
        p = float(rng.uniform(1.5, 3.5))
        n = int(rng.integers(80, 160))
        grid = Grid1D.graded(2 * (n // 2) + 1, float(rng.uniform(1.5, 3.0)))
        op = assemble(grid, alpha)
        amp = float(rng.uniform(0.3, 3.0))
        f_vals = amp * (1.0 + np.sin(np.pi * grid.nodes * rng.integers(1, 4)) ** 2)
        source = SourceField(
            kind="tabulated",
            table_x=tuple(grid.nodes[:: max(1, n // 20)]),
            table_f=tuple(f_vals[:: max(1, n // 20)]),
        )
        params = ProblemParams(alpha, p, source=source)
        sub = GridFunction.zeros(grid)
        super_ = solve_linear(op, 0.0, source.value(grid.nodes))
        assert np.all(super_.values >= 0)  # maximum principle
        cfg = IterationConfig(max_iters=3000, sup_tol=1e-10)
        u, trace = solve_semilinear(params, op, sub, super_, cfg)
        # stopped on the sup-change test; a decreasing step would have raised
        assert trace.sup_changes[-1] < cfg.sup_tol * (1.0 + np.max(np.abs(u.values)))
        assert trace.final_residual < 10 * cfg.sup_tol


def test_blowup_critical_family_gap_band(kc05):
    """The critical-rate family: t*d^tau0 - u stays pinched between positive
    multiples of the gap power on the collar."""
    from fraclap.rates import check_band

    params = ProblemParams(0.5, 2.5)
    levels = (8, 16, 32, 64, 128, 256)
    grid = Grid1D.graded(1001, 3.0, include=[1 / s for s in levels])
    cfg = IterationConfig(max_iters=20000, sup_tol=1e-10, exhaustion_levels=levels)
    res = solve_blowup(params, grid, cfg, pair=make_special_pair(params, 1.0))
    assert res.monotone_in_levels and res.sandwich_ok
    tau1 = min(kc05.tau0 * params.p + 2 * params.alpha, 0.0)
    gap = GridFunction(grid, grid.d**kc05.tau0 - res.final.values)
    bmin, bmax, ok = check_band(gap, tau1, (2.5 / 256, 0.05))
    assert ok and bmin > 0
    assert bmax / bmin < 10  # measured ~1.4; generous stability margin


@pytest.mark.parametrize("alpha,p", [(0.25, 1.6), (0.75, 4.0)])
def test_blowup_other_alphas(alpha, p):
    """The pipeline holds away from alpha = 1/2 (both power-range shapes)."""
    from fraclap.exponents import find_tau0
    from fraclap.rates import fit_exponent

    kc = find_tau0(alpha)
    assert 1 + 2 * alpha < p < kc.p_star
    levels = (8, 16, 32, 64)
    grid = Grid1D.graded(601, 3.0, include=[1 / s for s in levels])
    cfg = IterationConfig(max_iters=20000, sup_tol=1e-9, exhaustion_levels=levels)
    params = ProblemParams(alpha, p)
    res = solve_blowup(params, grid, cfg)
    assert res.monotone_in_levels and res.sandwich_ok
    fit = fit_exponent(res.final, (2.5 / 64, 0.1))
    predicted = -2 * alpha / (p - 1)
    # shallow shells: generous tolerance, sign and scale must be right
    assert abs(fit.exponent - predicted) / abs(predicted) < 0.25

