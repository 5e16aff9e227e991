"""Discrete operator and semi-analytic evaluation paths."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import betainc, hyp2f1, roots_jacobi

import fraclap.operator as fop
from fraclap.barriers import torsion
from fraclap.errors import DomainError, FraclapError, GridMismatchError
from fraclap.fields import ExteriorData
from fraclap.grid import Grid1D, GridFunction
from fraclap.operator import (
    DistanceProfile,
    _gauss_jacobi,
    _gauss_series,
    _incomplete_beta,
    _pow_antideriv,
    _quintic_log_blend,
    assemble,
    assemble_centre_out,
    eval_on_power,
    exterior_potential,
    split_map,
    tail_coefficient,
)
from fraclap.quadrature import eval_C, eval_C_tilde

# operator of the unit bump c=1 at probe points, alpha=0.5; mpmath references
# from scripts/make_reference_values.py
BUMP_REFERENCE = {
    0.2: -2.57794842626589182,
    0.35: 7.54894507346770296,
    0.5: 12.8,
    0.65: 7.54894507346770296,
    0.8: -2.57794842626589182,
}

# operator of the d^tau profile (delta = 0.1) at boundary distances d, keyed
# (alpha, tau, d): collar, both sides of the seam, interior; mpmath references
# from scripts/make_reference_values.py
PROFILE_REFERENCE = {
    (0.25, -0.6, 1e-4): 38401.2449905808869,
    (0.25, -0.6, 3e-3): 910.553629653755016,
    (0.25, -0.6, 0.05): 40.7498011045170731,
    (0.25, -0.6, 0.099): 18.8774812346899439,
    (0.25, -0.6, 0.101): 18.4493400404627656,
    (0.25, -0.6, 0.3): 2.97904555795543301,
    (0.25, -0.6, 0.4985): -0.362163141694904853,
    (0.5, -0.45, 1e-4): 141278.101646329747,
    (0.5, -0.45, 3e-3): 1019.15827275838045,
    (0.5, -0.45, 0.05): 17.2055216457279961,
    (0.5, -0.45, 0.099): 6.32171804067943629,
    (0.5, -0.45, 0.101): 6.12751635553371898,
    (0.5, -0.45, 0.3): -0.959641032018369692,
    (0.5, -0.45, 0.4985): -3.03463907663701055,
    (0.75, -0.3, 1e-4): -3188842.5915323047,
    (0.75, -0.3, 3e-3): -6995.22044715328168,
    (0.75, -0.3, 0.05): -43.9680035829952069,
    (0.75, -0.3, 0.099): -12.7712783053794711,
    (0.75, -0.3, 0.101): -12.3867399776142398,
    (0.75, -0.3, 0.3): -4.15426255321742098,
    (0.75, -0.3, 0.4985): -4.43318585058404002,
    # tau = tau0, where C(tau) = 0 and the correction is the whole value
    (0.5, -0.5, 0.05): -0.246089128452191835,
    (0.5, -0.5, 0.099): -0.317666453696254994,
}


def bump_vals(x):
    return (4.0 * x * (1.0 - x)) ** 3


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_positive_and_c2_at_seam():
    h = 1e-5
    for tau in (-0.95, -0.5, -0.1):
        prof = DistanceProfile(tau=tau)
        s = np.geomspace(1e-6, 0.5, 500)
        assert np.all(prof.v(s) > 0)

        def second_difference(s0):
            return (prof.v(s0 + h) - 2 * prof.v(s0) + prof.v(s0 - h)) / h**2

        # one stencil on the collar power, one on the continuation, sharing
        # the seam value: they agree when the profile is C^2 there
        inside, outside = second_difference(0.1 - h), second_difference(0.1 + h)
        assert outside == pytest.approx(inside, rel=2e-3, abs=1e-6)


def _glue_system_solution(tau, delta):
    """The quintic's ascending coefficients from an mpmath LU solve (50
    digits) of its six glue conditions, formed as
    scripts/make_reference_values.py forms them."""
    with mpmath.workdps(50):
        tau, delta, half = mpmath.mpf(tau), mpmath.mpf(delta), mpmath.mpf(1) / 2

        def rows(s):
            return [
                [s**k for k in range(6)],
                [0] + [k * s ** (k - 1) for k in range(1, 6)],
                [0, 0] + [k * (k - 1) * s ** (k - 2) for k in range(2, 6)],
            ]

        A = mpmath.matrix(rows(delta) + rows(half))
        b = mpmath.matrix(
            [tau * mpmath.log(delta), tau / delta, -tau / delta**2, tau * mpmath.log(half), 0, 0]
        )
        return mpmath.lu_solve(A, b)


@pytest.mark.parametrize("tau", [-0.95, -0.5, -0.1, 0.0])
def test_glue_quintic_closed_form(tau):
    delta = DistanceProfile.delta
    q, seam = _quintic_log_blend(tau, delta)
    ref = _glue_system_solution(tau, delta)
    for got, want in zip(q, ref):
        assert abs(got - float(want)) <= 1e-13 * abs(float(want))
    # the six glue conditions, on the double coefficients at 50 digits and
    # up to their rounding: tau log s to second order at delta, flat at 1/2
    with mpmath.workdps(50):
        conditions = ((delta, (tau * math.log(delta), tau / delta, -tau / delta**2)),
                      (0.5, (tau * math.log(0.5), 0.0, 0.0)))
        for s, wants in conditions:
            for order, want in enumerate(wants):
                terms = [mpmath.mpf(float(c)) * math.perm(k, order) * mpmath.mpf(s) ** (k - order)
                         for k, c in enumerate(q) if k >= order]
                assert abs(sum(terms) - want) <= 1e-15 * sum(abs(t) for t in terms)
    # the seam coefficients are c3, c4, c5 of q expanded at delta
    with mpmath.workdps(50):
        for k, c in zip((3, 4, 5), seam):
            want = sum(ref[j] * math.comb(j, k) * mpmath.mpf(delta) ** (j - k) for j in range(k, 6))
            assert abs(c - float(want)) <= 1e-13 * max(1.0, abs(float(want)))


def test_profile_collar_is_exact_power():
    prof = DistanceProfile(tau=-0.6)
    x = np.array([1e-4, 0.05, 0.95, 1.0 - 1e-4])
    d = np.minimum(x, 1 - x)
    assert prof.value(x) == pytest.approx(d**-0.6)
    assert prof.value(np.array([-0.1, 1.1])) == pytest.approx([0.0, 0.0])


def test_profile_domain_errors():
    with pytest.raises(DomainError):
        DistanceProfile(tau=-1.2)


# ---------------------------------------------------------------------------
# semi-analytic evaluation
# ---------------------------------------------------------------------------


def test_collar_asymptotics_match_kernel_constant():
    """On the collar the operator equals -C(tau) d^(tau-2a) up to O(d^rho)."""
    for tau, alpha in [(-0.8, 0.5), (-0.2, 0.5), (-0.5, 0.25)]:
        c = eval_C(tau, alpha)
        for d in (1e-4, 1e-3):
            val = eval_on_power(tau, alpha, d)
            assert val * d ** (2 * alpha - tau) == pytest.approx(-c, rel=2e-3)


def test_eval_on_power_symmetry_and_signs():
    assert eval_on_power(-0.4, 0.5, 0.3) == pytest.approx(
        eval_on_power(-0.4, 0.5, 0.7), rel=1e-9
    )
    # below the root the collar operator is negative, above positive
    assert eval_on_power(-0.8, 0.5, 1e-3) < 0
    assert eval_on_power(-0.2, 0.5, 1e-3) > 0


def test_eval_on_power_floor():
    with pytest.raises(DomainError):
        eval_on_power(-0.5, 0.5, 1e-7)
    with pytest.raises(DomainError):
        eval_on_power(-0.5, 0.5, 1.5)


def test_eval_on_power_matches_profile_reference():
    for (alpha, tau, d), ref in PROFILE_REFERENCE.items():
        assert eval_on_power(tau, alpha, d) == pytest.approx(ref, rel=5e-12)
        assert eval_on_power(tau, alpha, 1.0 - d) == pytest.approx(ref, rel=5e-12)


def test_eval_on_power_mirror_symmetry():
    xs = np.array([3e-3, 0.05, 0.099, 0.101, 0.3, 0.4985])
    for alpha, tau in ((0.25, -0.6), (0.5, -0.45), (0.75, -0.3)):
        left = eval_on_power(tau, alpha, xs)
        right = eval_on_power(tau, alpha, 1.0 - xs)
        assert np.max(np.abs(left - right) / np.abs(left)) < 1e-12


def test_eval_on_power_array_call_equals_scalar_calls():
    xs = np.concatenate([np.geomspace(1e-5, 0.1, 9), np.linspace(0.1, 0.9, 9), [0.4985, 0.9995]])
    for alpha, tau in ((0.25, -0.6), (0.75, -0.3)):
        batch = eval_on_power(tau, alpha, xs)
        assert np.array_equal(batch, [eval_on_power(tau, alpha, float(x)) for x in xs])
        assert isinstance(eval_on_power(tau, alpha, 0.3), float)
        assert eval_on_power(tau, alpha, xs.reshape(4, 5)).shape == (4, 5)

    # a batch spanning several `_panel_sums` blocks on both paths: a collar
    # point is one row of the collar table, an interior point 6 rows (its
    # pieces) of the logarithmic table
    collar_rows = fop._BLOCK_ENTRIES // fop._COLLAR_RULE[0].size
    interior_rows = fop._BLOCK_ENTRIES // fop._LOG_RULE[0].size
    xs = np.concatenate([
        np.geomspace(1e-5, 0.099, 3 * collar_rows + 5),
        np.linspace(0.1, 0.9, 2 * (3 * interior_rows // 6 + 5)),
    ])
    for alpha, tau in ((0.25, -0.6), (0.75, -0.3)):
        batch = eval_on_power(tau, alpha, xs)
        assert np.array_equal(batch, [eval_on_power(tau, alpha, float(x)) for x in xs])
        for cut in (7, xs.size // 2 + 3):
            halves = [eval_on_power(tau, alpha, part) for part in np.split(xs, [cut])]
            assert np.array_equal(batch, np.concatenate(halves))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_eval_on_power_tau_array_rows_equal_scalar_tau_calls(alpha):
    """A 1-D array of tau gives one row per tau, each equal bit for bit to
    the call with that tau alone, on collar points, interior points and a
    mix of both; the shape of x is kept behind the tau axis."""
    taus = np.array([-0.9, -0.65, -0.5, alpha - 1.0, -0.2, -0.05, 0.0])
    collar = np.geomspace(1e-5, 0.099, 40)
    interior = np.concatenate([np.linspace(0.1, 0.5, 13), [0.73, 0.9]])
    mixed = np.concatenate([collar[::7], interior[::3], 1.0 - collar[::9]])
    for xs in (collar, interior, mixed):
        rows = eval_on_power(taus, alpha, xs)
        assert rows.shape == (taus.size, xs.size)
        for tau, row in zip(taus, rows):
            assert np.array_equal(row, eval_on_power(float(tau), alpha, xs))
    assert eval_on_power(taus, alpha, 0.3).tolist() == [
        eval_on_power(float(tau), alpha, 0.3) for tau in taus
    ]
    assert eval_on_power(taus[:2], alpha, mixed.reshape(-1, 1)).shape == (2, mixed.size, 1)


def test_eval_on_power_tau_array_domain():
    with pytest.raises(DomainError):
        eval_on_power(np.array([-0.5, -1.0]), 0.5, 0.3)
    with pytest.raises(DomainError):
        eval_on_power(np.full((2, 2), -0.5), 0.5, 0.3)


def test_rule_tables(monkeypatch):
    """The collar table on [delta, 1-delta] and the logarithmic table on
    [0, 1] are read-only and integrate z^k exactly for k <= 27 (14-node
    Gauss-Legendre panels); a batch of collar points evaluates the seam gap
    once, over the whole collar table."""
    for table in (*fop._COLLAR_RULE, *fop._LOG_RULE):
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
    k = np.arange(28.0)
    delta = DistanceProfile.delta
    for (z, w), exact in (
        (fop._COLLAR_RULE, ((1.0 - delta) ** (k + 1) - delta ** (k + 1)) / (k + 1)),
        (fop._LOG_RULE, 1.0 / (k + 1)),
    ):
        moments = (w[..., None] * z[..., None] ** k).sum(axis=(0, 1))
        assert np.max(np.abs(moments / exact - 1.0)) <= 1e-13
    calls = []
    real = fop._seam_log_gap
    monkeypatch.setattr(fop, "_seam_log_gap", lambda *a: calls.append(a) or real(*a))
    eval_on_power(-0.5, 0.5, np.geomspace(1e-5, 0.09, 20))
    assert len(calls) == 1


def test_eval_on_power_array_floor():
    with pytest.raises(DomainError):
        eval_on_power(-0.5, 0.5, np.array([0.01, 0.3, 1.0 - 5e-7]))
    with pytest.raises(DomainError):
        eval_on_power(-0.5, 0.5, np.array([0.2, 0.0]))


# ---------------------------------------------------------------------------
# special functions of the semi-analytic path, against scipy
# ---------------------------------------------------------------------------


def test_gauss_series_against_hyp2f1():
    """2F1(1+2a, b; b+1; z) over the parameters of `_power_window` and the
    collar tail: z <= 1/2, and z <= delta / (1 - delta) with that bound given
    (fewer terms for the default collar delta = 0.1, more for a wide one)."""
    rng = np.random.default_rng(1)
    for z_max in (0.5, 0.1 / 0.9, 0.45 / 0.55):
        for _ in range(200):
            a = 1.0 + 2.0 * rng.uniform(0.02, 0.98)
            b = rng.uniform(0.01, 2.5)
            z = np.append(rng.uniform(0.0, z_max, 15), z_max)
            got = _gauss_series(a, b, z, z_max)
            assert np.max(np.abs(got / hyp2f1(a, b, b + 1.0, z) - 1.0)) < 1e-14


def test_incomplete_beta_both_branches():
    """B_x(beta+1, 2 alpha - beta), the exterior potential's incomplete beta,
    on both sides of x = 1/2 (series below, symmetry above)."""
    rng = np.random.default_rng(2)
    for _ in range(300):
        alpha, beta = rng.uniform(0.02, 0.98), -rng.uniform(0.0, 0.999)
        a, b = beta + 1.0, 2.0 * alpha - beta
        x = np.concatenate((rng.uniform(0.0, 0.5, 8), rng.uniform(0.5, 1.0, 8), [0.5]))
        ref = betainc(a, b, x) * beta_fn(a, b)
        assert np.max(np.abs(_incomplete_beta(a, b, x) / ref - 1.0)) < 1e-13


@pytest.mark.parametrize(
    "n,b",
    # the 48-point window rules, b = 1 - 2 alpha, the 14-node Gauss-Legendre
    # panels of the rule tables, and a longer Gauss-Legendre rule
    [(48, 1.0 - 2.0 * alpha) for alpha in (0.02, 0.25, 0.5, 0.75, 0.98)] + [(14, 0.0), (28, 0.0)],
)
def test_gauss_jacobi_against_roots_jacobi(n, b):
    t, w = _gauss_jacobi(n, b)
    t_ref, w_ref = roots_jacobi(n, 0.0, b)
    assert np.max(np.abs(t - t_ref)) <= 5e-16
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-10


def test_gauss_jacobi_refuses_an_unconverged_rule(monkeypatch):
    monkeypatch.setattr(fop, "_NEWTON_STEPS", 2)
    with pytest.raises(FraclapError, match="did not converge"):
        _gauss_jacobi(48, 0.0)


# ---------------------------------------------------------------------------
# dense assembly
# ---------------------------------------------------------------------------


def test_row_identity_and_tail(op301, grid301, reference_rows):
    ones = np.ones(grid301.n_interior)
    # the left-half rows; the right half is their mirror image
    rows = reference_rows(grid301, 0.5)
    tail = tail_coefficient(grid301.nodes, 0.5)
    resid = rows @ ones
    scale = np.abs(rows).sum(axis=1) + tail[: grid301.n_half]
    assert np.max(np.abs(resid) / scale) < 1e-12
    out = op301.apply(GridFunction(grid301, 2.7 * ones))
    assert out.values == pytest.approx(2.7 * tail, rel=1e-9)
    assert np.all(tail > 0)
    assert tail == pytest.approx(tail[::-1])


def test_m_matrix_structure(grid301, reference_rows):
    idx = np.arange(grid301.n_half)
    rows = reference_rows(grid301, 0.5)
    diag = rows[idx, idx]
    off = rows.copy()
    off[idx, idx] = 0.0
    assert np.all(diag > 0)
    assert np.max(off) <= 1e-14


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_assembly_mirror_symmetric_and_folded_m_matrix(alpha, reference_rows, reference_dense):
    grid = Grid1D.graded(201, 3.0, include=[1 / 8, 1 / 32])
    A = reference_rows(grid, alpha)
    dense = reference_dense(grid, alpha)
    # the tail on its diagonal included
    assert np.array_equal(dense, dense[::-1, ::-1])
    h = grid.n_half
    tail = tail_coefficient(grid.nodes[:h], alpha)
    folded = assemble_centre_out(grid, alpha)[::-1, ::-1]
    assert folded.shape == (h, h)
    assert np.max(folded - np.diag(np.diag(folded))) <= 0.0
    # every column of a left-half row lands in one folded column, so the row
    # sums are unchanged; summed exactly, only the fold's additions differ
    full = np.array([math.fsum([*A[i], tail[i]]) for i in range(h)])
    fold = np.array([math.fsum(row) for row in folded])
    assert np.max(np.abs(fold - full) / full) <= 1e-12


def test_folded_acts_on_mirrored_functions(rng, reference_rows):
    # odd n (a midpoint without a partner) and even n
    even = Grid1D(nodes=np.array([0.1, 0.3, 0.45, 0.55, 0.7, 0.9]))
    for grid in (Grid1D.graded(101, 2.0), even):
        rows = reference_rows(grid, 0.5)
        v = rng.standard_normal(grid.n_half)
        u = grid.mirror(v)
        h = grid.n_half
        tail = tail_coefficient(grid.nodes[:h], 0.5)
        full = rows @ u + tail * v
        scale = np.abs(rows).sum(axis=1) + tail
        centre_out = assemble_centre_out(grid, 0.5) @ v[::-1]
        assert np.max(np.abs(centre_out[::-1] - full) / scale) < 1e-14


def test_blocks_storage_and_dense_mirror(reference_rows, reference_dense):
    """The operator is stored as two half blocks, and the dense reference
    is the mirror of its left-half rows with the tail on the diagonal; the
    blocks applied to the unit vectors through `split_map` give it back."""
    # odd n (the midpoint row is its own mirror) and even n
    even = Grid1D(nodes=np.array([0.1, 0.3, 0.45, 0.55, 0.7, 0.9]))
    for grid in (Grid1D.graded(201, 3.0, include=[1 / 8]), even):
        op = assemble(grid, 0.5)
        n, h = grid.n_interior, grid.n_half
        assert op.even.shape == (h, h) and op.odd.shape == (n - h, n - h)
        dense = reference_dense(grid, 0.5)
        assert dense.shape == (n, n)
        assert np.array_equal(dense, dense[::-1, ::-1])
        expected = reference_rows(grid, 0.5)
        expected[np.arange(h), np.arange(h)] += tail_coefficient(grid.nodes[:h], 0.5)
        assert np.array_equal(dense[:h], expected)
        columns = [split_map(e, op.even.dot, op.odd.dot) for e in np.eye(n)]
        assert np.max(np.abs(np.transpose(columns) - dense)) <= 1e-15 * np.max(np.abs(dense))


def test_apply_mirrored_matvec_matches_dense(rng, reference_dense):
    even = Grid1D(nodes=np.array([0.1, 0.3, 0.45, 0.55, 0.7, 0.9]))
    for grid in (Grid1D.graded(301, 3.0), even):
        op = assemble(grid, 0.75)
        u = rng.standard_normal(grid.n_interior) + np.linspace(0.0, 3.0, grid.n_interior)
        dense = reference_dense(grid, 0.75)
        scale = np.abs(dense).sum(axis=1)
        out = op.apply(GridFunction(grid, u)).values
        assert np.max(np.abs(out - dense @ u) / scale) < 1e-14


def test_apply_zero_function_gives_zero(op301, grid301):
    out = op301.apply(GridFunction.zeros(grid301))
    assert out.values == pytest.approx(np.zeros(grid301.n_interior))


def test_apply_zero_and_exterior_load(op301, grid301):
    """The operator of the zero function with exterior g is the zero-exterior
    operator of 0 minus G = exterior_potential(g): the exterior load is -G at
    the nodes, negative since G > 0 for g >= 0 not identically zero."""
    ext = ExteriorData.power_collar(beta=-0.5, kappa_g=1.0, eta=0.5)
    G = exterior_potential(ext, 0.5, grid301.nodes)
    load = op301.apply(GridFunction.zeros(grid301)).values - G
    assert load == pytest.approx(-G)
    assert np.all(load < 0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_apply_linearity(seed):
    grid = Grid1D.graded(101, 2.0)
    op = assemble(grid, 0.5)
    r = np.random.default_rng(seed)
    u = r.standard_normal(grid.n_interior)
    v = r.standard_normal(grid.n_interior)
    a, b = r.standard_normal(2)
    lhs = op.apply(GridFunction(grid, a * u + b * v)).values
    rhs = a * op.apply(GridFunction(grid, u)).values + b * op.apply(GridFunction(grid, v)).values
    assert lhs == pytest.approx(rhs, abs=1e-8 * (1 + np.max(np.abs(rhs))))


def test_indicator_reproduces_tail(op301, grid301):
    # interval indicator: nodal ones; the closed form is the tail coefficient
    out = op301.apply(GridFunction(grid301, np.ones(grid301.n_interior)))
    expected = tail_coefficient(grid301.nodes, 0.5)
    assert out.values == pytest.approx(expected, rel=1e-9)
    d = grid301.d
    collar = d < 0.05
    band = out.values[collar] * d[collar] ** (2 * 0.5)
    # 1/(2 alpha) <= band <= 2/(2 alpha) on the collar
    assert np.all(band > 0.99) and np.all(band < 2.01)


def test_grid_mismatch_raises(op301):
    other = Grid1D.graded(51, 2.0)
    with pytest.raises(GridMismatchError):
        op301.apply(GridFunction(other, np.zeros(other.n_interior)))


GRADED201 = Grid1D.graded(201, 3.0, include=[2.0**-k for k in range(3, 15)] + [0.2, 0.35]).nodes
EVEN6 = [0.1, 0.3, 0.45, 0.55, 0.7, 0.9]
# the doubling grid: at the first node the edge distances on both sides of
# the local zone are equal, so a pair spanning the zone has width 0
DOUBLING5 = [0.125, 0.25, 0.5, 0.75, 0.875]


ALPHAS = (0.25, 0.5, 0.5 + 1e-13, 0.75)
GRIDS = pytest.mark.parametrize(
    "nodes", [GRADED201, EVEN6, DOUBLING5], ids=["graded201", "even6", "doubling5"]
)


def _folds(rows, tail):
    """The fold and the anti-fold of the left-half rows (each right-half
    column added to, or subtracted from, its mirror; the midpoint column of
    odd n unpaired and dropped from the anti-fold), the tail added on both
    diagonals, in centre-out order."""
    h, n = rows.shape
    mirror = rows[:, : h - 1 : -1]
    folded = rows[:, :h].copy()
    folded[:, : n - h] += mirror
    folded[np.diag_indices(h)] += tail
    anti = rows[: n - h, : n - h] - mirror[: n - h]
    anti[np.diag_indices(n - h)] += tail[: n - h]
    return folded[::-1, ::-1], anti[::-1, ::-1]


@GRIDS
def test_assembly_rows_bit_exact_against_per_cell_reference(nodes, reference_rows):
    """`assemble`'s even and odd blocks are the fold and the anti-fold of
    the per-cell reference rows, bit for bit."""
    grid = Grid1D(nodes=np.array(nodes))
    for alpha in ALPHAS:
        op = assemble(grid, alpha)
        tail = tail_coefficient(grid.nodes[: grid.n_half], alpha)
        even, odd = _folds(reference_rows(grid, alpha), tail)
        assert np.array_equal(op.even, even)
        assert np.array_equal(op.odd, odd)


@GRIDS
@pytest.mark.parametrize("alpha", ALPHAS)
def test_centre_out_assembly_is_the_reversed_fold(nodes, alpha, reference_rows):
    """`assemble_centre_out` is the reference rows folded (each right-half
    column added to its mirror, the midpoint column of odd n unpaired), the
    tail added on the diagonal, and then both axes reversed, bit for bit;
    it is `OperatorMatrix.even`."""
    grid = Grid1D(nodes=np.array(nodes))
    tail = tail_coefficient(grid.nodes[: grid.n_half], alpha)
    centre_out = assemble_centre_out(grid, alpha)
    assert np.array_equal(centre_out, _folds(reference_rows(grid, alpha), tail)[0])
    assert np.array_equal(centre_out, assemble(grid, alpha).even)


@GRIDS
@pytest.mark.parametrize("alpha", ALPHAS)
def test_operator_is_centrosymmetric_with_dominant_blocks(nodes, alpha, reference_dense):
    """J M J = M bit for bit (J the reversal), which is what lets the even
    and odd blocks stand for M; both blocks are row-strictly dominant with
    off-diagonals <= 0, so `lu_factor` factors them without pivoting."""
    grid = Grid1D(nodes=np.array(nodes))
    dense = reference_dense(grid, alpha)
    assert np.array_equal(dense[::-1, ::-1], dense)
    op = assemble(grid, alpha)
    for block in (op.even, op.odd):
        diag = np.diag(block)
        assert np.all(diag > np.abs(block).sum(axis=1) - diag)
        assert np.max(block - np.diag(diag)) <= 0.0


def test_pow_antideriv_log_branch_is_the_series_at_zero():
    """At s = 0 exactly the antiderivative is dlog, which is the series
    branch's value bit for bit: exp(0) = 1 and every correction is 0."""
    grid = Grid1D(nodes=np.array(GRADED201))
    edges = grid.cell_edges()
    for x in grid.nodes[::10]:
        r = np.abs(edges - x)
        log_r = np.log(r[r > 0.0])
        log_lo, dlog = log_r[:-1], log_r[1:] - log_r[:-1]
        s = 0.0
        series = np.exp(s * log_lo) * dlog * (1.0 + 0.5 * s * dlog * (1.0 + s * dlog / 3.0))
        assert np.array_equal(_pow_antideriv(log_lo, dlog, 0.0), series)


def test_assembly_refuses_a_non_finite_moment(monkeypatch):
    # both consumers of the row kernel refuse a row with a non-finite entry
    monkeypatch.setattr(fop, "_pow_antideriv", lambda log_lo, dlog, s: dlog * np.nan)
    grid = Grid1D(nodes=np.array(EVEN6))
    for build in (assemble, assemble_centre_out):
        with pytest.raises(FraclapError, match="non-finite"):
            build(grid, 0.5)


def test_assembly_special_value_log_branch():
    # 2*alpha = 1 exercises the logarithmic antiderivative branch
    grid = Grid1D.graded(101, 2.0)
    for alpha in (0.5, 0.5 + 1e-13):
        op = assemble(grid, alpha)
        assert np.all(np.isfinite(op.even)) and np.all(np.isfinite(op.odd))


def test_smooth_bump_probe_accuracy():
    """Discrete apply against the independent quadrature reference."""
    probes = sorted(BUMP_REFERENCE)
    grid = Grid1D.graded(999, 3.0, include=probes)
    op = assemble(grid, 0.5)
    out = op.apply(GridFunction(grid, bump_vals(grid.nodes)))
    for px in probes:
        i = int(np.argmin(np.abs(grid.nodes - px)))
        assert grid.nodes[i] == pytest.approx(px, abs=1e-13)
        assert out.values[i] == pytest.approx(BUMP_REFERENCE[px], abs=2.5e-2)


def test_grid_refinement_convergence():
    probes = sorted(BUMP_REFERENCE)
    errs = []
    for n in (251, 501, 1001):
        grid = Grid1D.graded(n, 3.0, include=probes)
        op = assemble(grid, 0.5)
        out = op.apply(GridFunction(grid, bump_vals(grid.nodes)))
        err = max(
            abs(out.values[int(np.argmin(np.abs(grid.nodes - px)))] - ref)
            for px, ref in BUMP_REFERENCE.items()
        )
        errs.append(err)
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_assembly_against_closed_form_torsion(alpha):
    """The discrete operator applied to the closed-form torsion V, whose exact
    continuum value is -1: the defect on d > 0.01 falls under refinement,
    and at the node nearest d = 1/4 it falls with order 2 - 2 alpha."""

    def defects(n):
        grid = Grid1D.graded(n, 3.0)
        out = assemble(grid, alpha).apply(GridFunction(grid, torsion(alpha, grid.d)))
        defect = np.abs(out.values + 1.0)
        return np.max(defect[grid.d > 0.01]), defect[np.argmin(np.abs(grid.d - 0.25))]

    errs = [defects(n)[0] for n in (301, 601)]
    assert errs[1] < errs[0] < 5e-2
    at_quarter = [defects(n)[1] for n in (251, 501, 1001)]
    orders = np.log2(np.divide(at_quarter[:-1], at_quarter[1:]))
    assert np.all(np.abs(orders - (2.0 - 2.0 * alpha)) < 0.15), orders


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("x", [0.2, 0.01])
def test_power_bump_closed_form_is_torsion_and_tail(alpha, x, power_bump_operator):
    """At tau = alpha the closed form is the constant operator value of the
    torsion's power, -1 / (torsion / (x(1-x))^alpha); at tau = 0 it is the
    operator of the indicator, `tail_coefficient`."""
    at_alpha = power_bump_operator(x, alpha, alpha) * float(torsion(alpha, x))
    assert at_alpha / (x * (1.0 - x)) ** alpha == pytest.approx(-1.0, rel=1e-14)
    assert power_bump_operator(x, alpha, 0.0) == pytest.approx(
        float(tail_coefficient(x, alpha)), rel=1e-14
    )


@pytest.mark.parametrize("alpha, tau", [(0.25, -0.3), (0.5, 0.5), (0.75, -0.2)])
def test_assembly_consistency_order_on_power_bumps(alpha, tau, power_bump_operator):
    """The discrete operator applied to (x(1-x))^tau against its closed
    form, at the node nearest d = 1/4 of unsnapped graded grids: the defect
    falls with order 2 - 2 alpha in n, singular (tau < 0) and smooth
    (tau > 0) boundary behaviour alike."""
    defects = []
    for n in (251, 501, 1001):
        grid = Grid1D.graded(n, 3.0)
        d = grid.d
        out = assemble(grid, alpha).apply(GridFunction(grid, (d * (1.0 - d)) ** tau)).values
        i = int(np.argmin(np.abs(d - 0.25)))
        defects.append(abs(out[i] - power_bump_operator(grid.nodes[i], alpha, tau)))
    orders = np.log2(np.divide(defects[:-1], defects[1:]))
    assert np.all(np.abs(orders - (2.0 - 2.0 * alpha)) < 0.15), orders


def test_symmetric_output_for_symmetric_data(op301, grid301):
    u = GridFunction(grid301, bump_vals(grid301.nodes))
    out = op301.apply(u).values
    assert out == pytest.approx(out[::-1], rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# exterior potential
# ---------------------------------------------------------------------------


def test_exterior_potential_zero():
    ext = ExteriorData.zero()
    assert exterior_potential(ext, 0.5, np.array([0.3])) == pytest.approx([0.0])


def test_exterior_potential_against_quadrature():
    ext = ExteriorData.power_collar(beta=-0.5, kappa_g=1.0, eta=0.5)
    x0 = 0.37

    def g(z):
        return float(ext.value(np.array([z]))[0])

    left, _ = quad(lambda z: g(z) * abs(z - x0) ** -2.0, -np.inf, 0.0, limit=400)
    right, _ = quad(lambda z: g(z) * abs(z - x0) ** -2.0, 1.0, np.inf, limit=400)
    got = float(exterior_potential(ext, 0.5, np.array([x0]))[0])
    assert got == pytest.approx(left + right, rel=1e-9)


def test_exterior_potential_boundary_rate():
    ext = ExteriorData.power_collar(beta=-0.5, kappa_g=1.0, eta=0.5)
    d = np.geomspace(1e-4, 1e-2, 40)
    G = exterior_potential(ext, 0.5, d)
    assert np.all(G > 0)
    slope = np.polyfit(np.log(d), np.log(G), 1)[0]
    assert slope == pytest.approx(-1.5, rel=0.05)
    # the leading constant is the exterior kernel constant
    assert G[0] * d[0] ** 1.5 == pytest.approx(eval_C_tilde(-0.5, 0.5), rel=1e-3)

