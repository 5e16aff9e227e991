"""Linear solve, monotone iteration, and the exhaustion blow-up driver."""

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from fraclap.barriers import make_existence_pair, make_special_pair, torsion
from fraclap.errors import ConvergenceError, DomainError
from fraclap.exponents import ProblemParams, classify_regime
from fraclap.fields import ExteriorData, SourceField
from fraclap.grid import Grid1D, GridFunction
from fraclap.operator import assemble, assemble_centre_out, exterior_potential, split_map
from fraclap.solvers import (
    BLOCK_CAP,
    IterationConfig,
    _monotone_iterate,
    _split_solver,
    lu_factor as block_lu_factor,
    lu_product as block_lu_product,
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
    rel = np.abs(u + torsion(0.5, grid301.d)) / u
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


def test_solve_linear_factors_in_place(reference_dense):
    """The solve factors copies of the two half blocks in place: its peak
    allocation stays below one n x n array, and it matches a plain dense
    solve."""
    import tracemalloc

    grid = Grid1D.graded(601, 3.0)
    op = assemble(grid, 0.5)
    rhs = np.ones(grid.n_interior)
    ref = np.linalg.solve(reference_dense(grid, 0.5) + 0.5 * np.eye(grid.n_interior), rhs)
    tracemalloc.start()
    try:
        u = solve_linear(op, 0.5, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 8 * grid.n_interior**2  # measured 0.73 n^2 doubles
    assert np.max(np.abs(u.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_linear_nodal_shift_must_be_mirror_symmetric(
    op301, grid301, reference_dense, rng
):
    """A mirror-symmetric nodal shift solves on the two half blocks to
    within 1e-13 of a dense solve, for an asymmetric right-hand side; a
    shift that differs from its mirror is refused, naming the first node
    where it does."""
    shift = grid301.mirror(rng.random(grid301.n_half))
    rhs = rng.random(grid301.n_interior)
    ref = np.linalg.solve(reference_dense(grid301, 0.5) + np.diag(shift), rhs)
    u = solve_linear(op301, shift, rhs).values
    assert np.max(np.abs(u - ref)) <= 1e-13 * np.max(np.abs(ref))
    lopsided = shift.copy()
    lopsided[-3] += 1e-9
    refusal = r"mirror-symmetric shift: shift\[2\] at x = .* differs from shift\[298\]"
    with pytest.raises(DomainError, match=refusal):
        solve_linear(op301, lopsided, rhs)


@pytest.mark.parametrize("nodes", [None, [0.1, 0.3, 0.45, 0.55, 0.7, 0.9]], ids=["odd", "even"])
def test_split_map_maps_a_block_column_by_column(nodes, reference_dense):
    """`split_map` of an (n, k) block is its k one-column maps, at even and
    odd n: bit for bit with maps that act column by column, and up to
    rounding through the blocks' products and `_split_solver`'s solves (a
    k-column BLAS product rounds differently from k one-column ones).  A
    one-column block maps bit for bit as its nodal array, which is what
    `OperatorMatrix.apply` maps."""
    grid = Grid1D.graded(201, 3.0) if nodes is None else Grid1D(nodes=np.array(nodes))
    op = assemble(grid, 0.5)
    n, k = grid.n_interior, 4
    local = np.random.default_rng(7)
    v = local.standard_normal((n, k)) + np.linspace(0.0, 3.0, n)[:, None]
    shift = grid.mirror(local.random(grid.n_half))

    def by_columns(block):
        return lambda e: np.column_stack([block @ c for c in e.T])

    exact = split_map(v, by_columns(op.even), by_columns(op.odd))
    product = split_map(v, op.even.dot, op.odd.dot)
    solve = _split_solver(op, shift)
    solved = solve(v)
    scale = np.abs(reference_dense(grid, 0.5)) @ np.abs(v)
    for j in range(k):
        one = v[:, [j]]
        assert np.array_equal(exact[:, [j]], split_map(one, by_columns(op.even), by_columns(op.odd)))
        single = split_map(one, op.even.dot, op.odd.dot)
        assert np.array_equal(single[:, 0], op.apply(GridFunction(grid, v[:, j])).values)
        assert np.max(np.abs(product[:, [j]] - single) / scale[:, [j]]) <= 1e-14
        ref = solve(one)
        assert np.max(np.abs(solved[:, [j]] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_semilinear_zero_fixed_point(op301, grid301):
    params = ProblemParams(0.5, 2.0)
    zero = GridFunction.zeros(grid301)
    u, trace = solve_semilinear(params, op301, zero, zero, IterationConfig(max_iters=5))
    assert u.values == pytest.approx(np.zeros(grid301.n_interior))
    assert trace.iterations == 1 and trace.sup_changes == [0.0]


def _newton_reference(A, p, f_vals, u0, tol=1e-12):
    """Damped Newton on the same discrete system, A the dense matrix;
    independent solve path."""
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


@pytest.mark.parametrize(
    "p, tau, shell",
    [(2.5, -2.0 / 3.0, 1024), (4.0, -0.45, None), (4.0, -0.3, 1024)],
    ids=["interaction", "strong-full-depth", "p4-tau-0.3"],
)
def test_manufactured_level_within_its_certified_bound(p, tau, shell, power_bump_operator):
    """A level with a known solution: u* = (x(1-x))^tau solves
    L u + u^p = f* for f* = L u* + u*^p, L u* in closed form.  The folded
    level system with u* imposed outside the shell (every row free at full
    depth), solved by Newton, is an M-matrix system, so on its free rows
    |u - u*| <= (A_ff + diag(p min(u, u*)^(p-1)))^(-1) |A u* - L u*|.  The
    bound holds at every free node of an unsnapped graded grid, alpha = 0.5,
    and is sharp at d = 1/64."""
    alpha = 0.5
    grid = Grid1D.graded(501, 3.0)
    x = grid.nodes[: grid.n_half][::-1]  # centre-out: d = x decreases
    A = assemble_centre_out(grid, alpha)
    exact = (x * (1.0 - x)) ** tau
    op_exact = np.array([power_bump_operator(xi, alpha, tau) for xi in x])
    m = x.size if shell is None else int(np.count_nonzero(x > 1.0 / shell))
    free = A[:m, :m]
    f = op_exact[:m] + exact[:m] ** p - A[:m, m:] @ exact[m:]
    u = _newton_reference(free, p, f, exact[:m])
    defect = np.abs(A[:m] @ exact - op_exact[:m])
    bound = np.linalg.solve(free + np.diag(p * np.minimum(u, exact[:m]) ** (p - 1.0)), defect)
    err = np.abs(u - exact[:m])
    assert np.all(err <= (1.0 + 1e-9) * bound)
    assert np.max(err / exact[:m]) < 1e-2  # measured 5.7e-3 at worst
    i = int(np.argmin(np.abs(x[:m] - 1.0 / 64)))
    assert err[i] >= 0.85 * bound[i]


def test_semilinear_against_newton(op301, grid301, reference_dense):
    # bounded problem: p=2, f = 1, alpha = 0.5
    f_vals = np.ones(grid301.n_interior)
    source = SourceField(kind="tabulated", table_x=(0.25, 0.75), table_f=(1.0, 1.0))
    params = ProblemParams(0.5, 2.0, source=source)
    sub = GridFunction.zeros(grid301)
    super_ = solve_linear(op301, 0.0, f_vals)
    u, trace = solve_semilinear(
        params, op301, sub, super_, IterationConfig(max_iters=2000, sup_tol=1e-12)
    )
    ref = _newton_reference(reference_dense(grid301, 0.5), 2.0, f_vals, super_.values)
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


def test_semilinear_shift_too_small_raises(op301, grid301, reference_dense):
    # a constant shift of 1e-4 is far below the Lipschitz bound of u^4 on the
    # sandwich range: the second sweep overshoots downward and is refused
    f_vals = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(5.0, 5.0)).value(
        grid301.nodes
    )
    super_ = solve_linear(op301, 0.0, f_vals).values
    lu = lu_factor(reference_dense(grid301, 0.5) + 1e-4 * np.eye(grid301.n_interior))
    with pytest.raises(ConvergenceError, match="test: .*decreasing step"):
        _monotone_iterate(
            lambda b: lu_solve(lu, b), 1e-4, f_vals[:, None],
            lambda v: op301.apply(GridFunction(grid301, v[:, 0])).values[:, None], f_vals, 4.0,
            np.zeros((f_vals.size, 1)), IterationConfig(max_iters=50), np.abs(super_), ["test"],
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
    n, h = grid301.n_interior, grid301.n_half
    # each half block once
    assert calls == [(h, h), (n - h, n - h)]
    # the LUs overwrite copies of the shifted blocks, and the residual uses
    # the blocks themselves (measured 1.06 n^2 doubles at n = 301)
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


def test_blowup_small_interaction(monkeypatch, reference_dense):
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
    # the globalized pair (c sub + lambda V, sup - lambda V) depends on d
    # alone and is formed here from the collar pair at the grid's distances,
    # with the scale c the sub report records
    sup, sub = make_existence_pair(params, classify_regime(params))
    lam, c = res.pair_reports[0].mu, res.pair_reports[1].scale
    w = c * sub.value(grid.d) + lam * torsion(params.alpha, grid.d)
    u = sup.value(grid.d) - lam * torsion(params.alpha, grid.d)
    assert np.all(res.final.values >= w - 1e-9 * (1 + np.abs(w)))
    assert np.all(res.final.values <= u + 1e-9 * (1 + np.abs(u)))

    # each level solves its own system, rebuilt here in natural node order
    A = reference_dense(grid, params.alpha)
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
        x = block_lu_solve(lu, b[:, None], [m])[:, 0]
        ref = np.linalg.solve(full[:m, :m], b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    # not diagonally dominant: no factorization without pivoting is certified
    with pytest.raises(ConvergenceError, match="not diagonally dominant"):
        block_lu_factor(np.array([[1.0, 2.0], [3.0, 1.0]]))


def test_block_lu_solve_is_the_per_column_solve(rng):
    """A block right-hand side solves each column with its own leading
    block: the one-column solve of that column, zero at and past its size,
    whatever the column holds there."""
    n = 3 * BLOCK_CAP + 17
    sizes = (5, BLOCK_CAP + 40, BLOCK_CAP + 41, 3 * BLOCK_CAP)
    a = -rng.random((n, n))
    np.fill_diagonal(a, 0.0)
    lu = block_lu_factor(a + np.diag(-a.sum(axis=1) + 1.0 + rng.random(n)), sizes)
    cols = [BLOCK_CAP + 41, 5, n, 3 * BLOCK_CAP, 5]
    b = rng.random((n, len(cols)))
    x = block_lu_solve(lu, b, cols)
    assert x.shape == b.shape
    for j, m in enumerate(cols):
        ref = block_lu_solve(lu, b[:, [j]], [m])[:m, 0]
        assert np.max(np.abs(x[:m, j] - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert not x[m:, j].any()
    garbled = b.copy()
    for j, m in enumerate(cols):
        garbled[m:, j] = 1e6
    assert np.array_equal(block_lu_solve(lu, garbled, cols), x)
    with pytest.raises(ValueError, match="not block edges"):
        block_lu_solve(lu, b[:, :2], [6, n])


def test_block_lu_product_is_the_leading_block_product(rng):
    """`lu_product` multiplies each column by its own leading block of the
    matrix before factoring, from the factors and the Schur blocks alone,
    and zero past it, whatever the column holds there."""
    n = 3 * BLOCK_CAP + 17
    sizes = (5, BLOCK_CAP + 40, BLOCK_CAP + 41, 3 * BLOCK_CAP)
    a = -rng.random((n, n))
    np.fill_diagonal(a, 0.0)
    full = a + np.diag(-a.sum(axis=1) + 1.0 + rng.random(n))
    lu = block_lu_factor(full.copy(), sizes)
    # 5 + BLOCK_CAP is an edge the cap makes, not a size
    cols = [BLOCK_CAP + 41, 5, n, 3 * BLOCK_CAP, 5 + BLOCK_CAP, 5]
    v = rng.random((n, len(cols)))
    y = block_lu_product(lu, v, cols)
    assert y.shape == v.shape
    for j, m in enumerate(cols):
        ref = full[:m, :m] @ v[:m, j]
        assert np.max(np.abs(y[:m, j] - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert not y[m:, j].any()
    garbled = v.copy()
    for j, m in enumerate(cols):
        garbled[m:, j] = 1e6
    assert np.array_equal(block_lu_product(lu, garbled, cols), y)
    with pytest.raises(ValueError, match="not block edges"):
        block_lu_product(lu, v[:, :2], [6, n])


def test_nested_column_is_raised_to_the_one_before(op301, grid301, reference_dense):
    """Two copies of one problem, the first started from (1 - 1e-6) u* (a
    sub-solution for f >= 0), the second from 0.  Nested, the second is
    raised to the first before the first sweep, follows it exactly and
    freezes with it.  Not nested, it climbs from 0 and freezes later, while
    the first keeps the values it froze with."""
    source = SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.5, 2.0))
    params = ProblemParams(0.5, 3.0, source=source)
    super_ = solve_linear(op301, 0.0, source.value(grid301.nodes))
    zero = GridFunction.zeros(grid301)
    cfg = IterationConfig(sup_tol=1e-11)
    u_star, _ = solve_semilinear(params, op301, zero, super_, cfg)
    shift = 1.1 * 3.0 * super_.values**2
    dense = reference_dense(grid301, 0.5)
    lu = block_lu_factor(dense + np.diag(shift))
    u0 = np.column_stack([(1.0 - 1e-6) * u_star.values, np.zeros(grid301.n_interior)])
    f = source.value(grid301.nodes)

    def run(nested):
        return _monotone_iterate(
            lambda b: block_lu_solve(lu, b), shift, np.column_stack([f, f]), lambda v: dense @ v,
            f, 3.0, u0, cfg, np.abs(super_.values), ["a", "b"], nested=nested,
        )

    u, (first, second) = run(2)
    assert np.array_equal(u[:, 1], u[:, 0])
    assert second.iterations == first.iterations
    v, (alone, climb) = run(0)
    assert alone.sup_changes == first.sup_changes
    assert climb.iterations > alone.iterations
    assert np.array_equal(v[:, 0], u[:, 0])


def test_blowup_solves_every_level_in_one_block_sweep(monkeypatch):
    """One factorization and one `lu_solve` per block sweep; the imposed
    levels freeze in order and are nondecreasing on their free rows, and
    every level agrees with that level solved alone from its start (one
    column) to the stop test's tolerance."""
    import fraclap.solvers as solvers

    factors, solves, block = [], [], {}
    real_factor, real_solve, real_iterate = (
        solvers.lu_factor, solvers.lu_solve, solvers._monotone_iterate)

    def factor(*args, **kwargs):
        factors.append(real_factor(*args, **kwargs))
        return factors[-1]

    def solve(*args):
        solves.append(args[1].shape)
        return real_solve(*args)

    def iterate(*args):
        block["args"] = args
        block["out"] = real_iterate(*args)
        return block["out"]

    monkeypatch.setattr(solvers, "lu_factor", factor)
    monkeypatch.setattr(solvers, "lu_solve", solve)
    monkeypatch.setattr(solvers, "_monotone_iterate", iterate)
    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.8, 1.0))
    grid = Grid1D.graded(301, 3.0)
    cfg = IterationConfig(exhaustion_levels=(8, 16, 32, 64, 128, int(2.0 / grid.min_spacing)))
    res = solve_blowup(params, grid, cfg)
    assert res.monotone_in_levels and res.sandwich_ok
    k = len(res.levels)
    assert len(factors) == 1
    assert solves == [(grid.n_half, k)] * max(lev.trace.iterations for lev in res.levels)

    imposed = [lev for lev in res.levels if not lev.solution.grid.free_mask(lev.shell).all()]
    assert len(imposed) == k - 1
    sweeps = [lev.trace.iterations for lev in imposed]
    assert sweeps == sorted(sweeps)
    for lo, hi in zip(imposed, imposed[1:]):
        free = grid.free_mask(lo.shell)
        assert np.all(hi.solution.values[free] >= lo.solution.values[free] - solvers.MONOTONE_SLACK)

    _, shift, rhs, product, f, p, u0, _, cap, where, sizes, _ = block["args"]
    Y = block["out"][0]
    for j, m in enumerate(sizes):

        def one(v, j=j):
            # the block's product acts column by column: column j alone
            block_v = u0.copy()
            block_v[:, j] = v[:, 0]
            return product(block_v)[:, [j]]

        alone, _ = real_iterate(
            lambda b, m=m: real_solve(factors[0], b, [m]), shift, rhs[:, [j]], one, f, p,
            u0[:, [j]], cfg, cap, [where[j]], [m],
        )
        tol = cfg.sup_tol * (1.0 + np.max(np.abs(alone)))
        assert np.max(np.abs(Y[:, j] - alone[:, 0])) <= tol, where[j]


def test_blowup_full_shell_requires_positive_source():
    params = ProblemParams(0.5, 2.5)
    grid = Grid1D.graded(201, 3.0, include=[1 / 8])
    full = int(2.0 / grid.min_spacing)
    cfg = IterationConfig(max_iters=5000, exhaustion_levels=(8, full))
    with pytest.raises(DomainError):
        solve_blowup(params, grid, cfg)


def test_blowup_full_depth_only_checks_w_on_no_row():
    """A schedule whose only level is full depth imposes W nowhere and climbs
    from 0, so the globalization checks W on no row and U on every row."""
    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.8))
    grid = Grid1D.graded(201, 3.0)
    cfg = IterationConfig(max_iters=5000, exhaustion_levels=(int(2.0 / grid.min_spacing),))
    res = solve_blowup(params, grid, cfg)
    assert len(res.levels) == 1 and res.final_free.all() and res.sandwich_ok
    r_sup, r_sub = res.pair_reports
    assert r_sub.nodes.size == 0 and r_sub.passed
    assert r_sup.nodes.size == grid.n_half and r_sup.passed


def test_full_depth_sandwich_tests_the_zero_start(monkeypatch):
    """Below a full-depth final level the comparison bound is that level's
    zero start (f >= 0), not W: W is no discrete sub-solution on the rows
    the level frees.  The weak-source profile lies below W at the deepest
    node and the sandwich holds; a verified row (d > 1/128) pushed to half
    of W keeps it, and the same row pushed below 0 or above U fails it."""
    import fraclap.solvers as solvers

    params = ProblemParams(0.5, 4.0, source=SourceField.power_collar(-1.2, 0.25))
    grid = Grid1D.graded(301, 3.0)
    cfg = IterationConfig(exhaustion_levels=(8, 16, 32, 64, 128, int(2.0 / grid.min_spacing)))
    res = solve_blowup(params, grid, cfg)
    r_sup, r_sub = res.pair_reports
    sup, sub = make_existence_pair(params, classify_regime(params))
    d, u = grid.d, res.final.values
    tor = r_sub.mu * torsion(params.alpha, d)
    w = r_sub.scale * sub.value(d) + tor
    big_u = sup.value(d) - tor
    assert res.sandwich_ok and u[0] < w[0]

    # the full-depth level's row at the last verified d (centre-out order)
    real = solvers._monotone_iterate
    row = np.count_nonzero(grid.nodes[: grid.n_half] > 1.0 / 128) - 1
    node = grid.n_half - 1 - row
    assert d[node] > 1.0 / 128 and 0 < w[node] < big_u[node]

    def sandwich_with_row_at(value):
        def iterate(*args):
            # the levels are the block's columns, the full-depth one last
            v, traces = real(*args)
            v[row, -1] = value
            return v, traces

        monkeypatch.setattr(solvers, "_monotone_iterate", iterate)
        return solve_blowup(params, grid, cfg).sandwich_ok

    assert sandwich_with_row_at(0.5 * w[node])
    assert not sandwich_with_row_at(-0.5 * w[node])
    assert not sandwich_with_row_at(2.0 * big_u[node])


def test_imposed_final_level_sandwich_tests_w(monkeypatch):
    """Below a final level that imposes W the comparison bound is W on every
    row: the profile pushed below W on one free row fails the sandwich."""
    import fraclap.solvers as solvers

    params = ProblemParams(0.5, 2.5)
    grid = Grid1D.graded(201, 3.0, include=[1 / 8, 1 / 16])
    cfg = IterationConfig(exhaustion_levels=(8, 16))
    res = solve_blowup(params, grid, cfg)
    assert res.sandwich_ok and not res.final_free.all()
    _, r_sub = res.pair_reports
    sup, sub = make_existence_pair(params, classify_regime(params))
    w = r_sub.scale * sub.value(grid.d) + r_sub.mu * torsion(params.alpha, grid.d)
    # the final level's deepest free row (centre-out order) and its node
    m = np.count_nonzero(grid.nodes[: grid.n_half] > 1.0 / 16)
    w_row = w[grid.n_half - m]
    assert np.all(res.final.values >= w - 1e-9 * (1 + np.abs(w)))

    real = solvers._monotone_iterate

    def lowered(*args):
        # the levels are the block's columns, the final one last
        v, traces = real(*args)
        v[m - 1, -1] = w_row - 0.01 * (1 + abs(w_row))
        return v, traces

    monkeypatch.setattr(solvers, "_monotone_iterate", lowered)
    assert not solve_blowup(params, grid, cfg).sandwich_ok


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
    """Assembled inside solve_blowup, each operator row is folded as it is
    made, and the LU overwrites the folded operator: the call holds one
    h x h float64 matrix, h = n_half, and its peak allocation stays below
    1.5 of them (measured 1.40 at n = 801; 2.25 with a copy for the LU, and
    about 3.2 when the h x n rows were stored and folded)."""
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
    assert peak < 1.5 * 8 * grid.n_half**2
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

