"""Linear Dirichlet solves, monotone semilinear iteration, and the
domain-exhaustion construction of boundary blow-up solutions.

The semilinear equation Lu + |u|^(p-1) u = f is solved by the classical
shifted fixed-point scheme: with a shift D making r(t) = D t - |t|^(p-1) t
increasing on the sandwich range, each sweep solves

    (L + D) u_next = f + D u_k - |u_k|^(p-1) u_k

starting from the sub-solution.  Because L + D is an M-matrix, the iterates
increase monotonically and stay below the super-solution.  Blow-up solutions
come from solving on the exhaustion domains {d > 1/shell} with the global
sub-solution W imposed on the remaining nodes; its matrix action on the free
nodes is the collar load.  The blow-up shift D is nodal and the same for every
level.  The nodes are ordered centre-out (by decreasing d), once: every free
set is then the leading m unknowns and its imposed set the rest, so each
level quantity is a [:m] or [m:] slice of one centre-out array, and one
factorization of L + D serves all levels.

Both solvers run the same loop, `_monotone_iterate`, on a block of
columns: one in `solve_semilinear`, and one per level in `solve_blowup`,
a full-length centre-out vector with W on the level's imposed rows.  The
factorization is `lu_factor`, a numpy block LDU without pivoting whose
blocks end at the level sizes, and `lu_solve` solves each column with its
own leading blocks in one pass over the factors.

Every blow-up datum (the source, the zero exterior, the barrier pair) is a
function of d = min(x, 1-x), so each level is mirror-symmetric and
`solve_blowup` works with the folded left-half system, (n+1)/2 unknowns: an
eighth of the LU's flops and a quarter of each solve's.
`fraclap.operator.assemble_centre_out` folds each operator row as it is
assembled and stores it centre-out, so the blow-up path holds two h x h
arrays, the operator and the factorization that overwrites its copy, and
never the left-half rows.  Folding adds each right-half column to its
mirror, so the off-diagonals stay <= 0 and the row sums are unchanged: the
folded L + D is still a row-strictly dominant M-matrix and the comparison
argument above holds for it unchanged.  `solve_linear` and
`solve_semilinear` keep the full matrix, because their data need not be
symmetric (a right-hand side can be anything), and share one in-place
factorization of fixed-size blocks, `_full_solver`.  Both monotone solvers
take the same shift, `_sandwich_shift` of their ordered pair, and factor
once.

Every solver works with zero exterior data.  Exterior data g enters as the
source term G = `fraclap.operator.exterior_potential`(g): solve with the
source f + G tabulated at the grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barriers import (
    BarrierSpec,
    globalize_pair,
    make_existence_pair,
)
from .errors import ConvergenceError, DomainError, GridMismatchError
from .exponents import ProblemParams, classify_regime
from .grid import Grid1D, GridFunction
from .operator import OperatorMatrix, assemble_centre_out

__all__ = [
    "IterationConfig",
    "IterationTrace",
    "BlowupLevel",
    "BlowupResult",
    "solve_linear",
    "solve_semilinear",
    "solve_blowup",
]

MONOTONE_SLACK = 1e-12

# widest diagonal block of `lu_factor`; blocks also end at every level size
BLOCK_CAP = 128


@dataclass(frozen=True)
class IterationConfig:
    """Controls for the monotone iteration and the exhaustion schedule.

    The shift is not a control: both solvers use `_sandwich_shift` of their
    ordered pair (the globalized (W, U) in `solve_blowup`).
    """

    max_iters: int = 500
    sup_tol: float = 1e-9
    exhaustion_levels: tuple = (8, 16, 32, 64, 128)

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if not 0.0 < self.sup_tol < np.inf:
            raise DomainError(f"sup_tol={self.sup_tol!r} must be positive and finite")
        levels = tuple(int(v) for v in self.exhaustion_levels)
        if not levels:
            raise DomainError("exhaustion_levels must name at least one shell")
        if min(levels) < 2:
            raise DomainError("exhaustion shell must satisfy shell >= 2")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError("exhaustion_levels must be strictly increasing")
        object.__setattr__(self, "exhaustion_levels", levels)


@dataclass
class IterationTrace:
    """Record of one monotone iteration, up to the sweep `iterations` at
    which it froze.  A decreasing step, and a stop that is not a converged
    one, raise, so a returned trace is monotone and converged by
    construction."""

    sup_changes: list = field(default_factory=list)
    iterations: int = 0
    shift_rebuilds: int = 0
    final_residual: float = float("nan")
    final_residual_rel: float = float("nan")


def _block_edges(n: int, sizes) -> tuple:
    """Block edges 0 = e_0 < e_1 < ... < e_J = n: every size in (0, n) is an
    edge, and no block is wider than BLOCK_CAP."""
    edges = [0]
    for cut in sorted({int(m) for m in sizes if 0 < m < n} | {n}):
        while cut - edges[-1] > BLOCK_CAP:
            edges.append(edges[-1] + BLOCK_CAP)
        edges.append(cut)
    return tuple(edges)


def lu_factor(a: np.ndarray, sizes=()) -> tuple[np.ndarray, tuple]:
    """Block LDU factorization of the square matrix a, in place and without
    pivoting; returns (a, edges) for `lu_solve`.

    The blocks end at every size in `sizes` (and are at most BLOCK_CAP wide),
    so for each edge m the leading m x m part of the factors factors the
    leading m x m block of a.  Diagonal block k is overwritten by inv(S_k),
    S_k the k-th Schur block; the blocks left of it by those of L D (L unit
    lower, D = diag(S_k)), and the blocks right of it by those of the unit
    upper U.  The products run on bands of rows or columns sized so that no
    temporary exceeds an eighth of a.

    Each S_k must be row-strictly diagonally dominant, hence invertible, or
    ConvergenceError is raised: that certifies the factorization without
    pivoting.  A row-strictly dominant M-matrix, as every shifted operator
    here is, always passes, since its Schur complements are again row-strictly
    dominant M-matrices.
    """
    n = a.shape[0]
    edges = _block_edges(n, sizes)
    budget = n * n // 8  # entries of the largest temporary
    for k0, k1 in zip(edges[:-1], edges[1:]):
        s = a[k0:k1, k0:k1]
        if not np.all(2.0 * np.abs(np.diagonal(s)) > np.abs(s).sum(axis=1)):
            raise ConvergenceError(
                f"the system is not diagonally dominant: Schur block {k0}:{k1} fails "
                "the row test, so LU without pivoting is not certified"
            )
        s[...] = np.linalg.inv(s)
        cols = max(1, budget // (k1 - k0))
        for c0 in range(k1, n, cols):
            a[k0:k1, c0 : c0 + cols] = s @ a[k0:k1, c0 : c0 + cols]
        rows = max(1, budget // max(1, n - k1))
        for r0 in range(k1, n, rows):
            a[r0 : r0 + rows, k1:] -= a[r0 : r0 + rows, k0:k1] @ a[k0:k1, k1:]
    return a, edges


def lu_solve(lu: tuple[np.ndarray, tuple], b: np.ndarray, m=None) -> np.ndarray:
    """Solve with the leading m x m block (default: all) of a `lu_factor`
    matrix; m must be one of its block edges.  Block forward substitution
    with L D, then back substitution with U, on views of the factors.  A
    2-D b takes an edge per column, and is zero past it."""
    a, edges = lu
    n = a.shape[0]
    if b.ndim == 1:
        top = n if m is None else m
        x = np.empty(top)
    else:
        sizes = np.full(b.shape[1], n) if m is None else np.asarray(m)
        top = int(sizes.max())
        if not set(sizes.tolist()) <= set(edges):
            raise ValueError(f"column sizes {sorted(set(sizes.tolist()) - set(edges))} "
                             "are not block edges of the factorization")
        x = np.zeros(b.shape)
    e = edges[: edges.index(top) + 1]
    for k0, k1 in zip(e[:-1], e[1:]):
        x[k0:k1] = a[k0:k1, k0:k1] @ (b[k0:k1] - a[k0:k1, :k0] @ x[:k0])
    if b.ndim == 2:
        x[:top][np.arange(top)[:, None] >= sizes] = 0.0
    for k0, k1 in zip(e[-2::-1], e[:0:-1]):
        x[k0:k1] -= a[k0:k1, k1:top] @ x[k1:top]
    return x


def _full_solver(op: OperatorMatrix, shift):
    """Solver of the full n x n system (L + diag(shift)) u = b: `lu_factor`
    overwrites the one n x n array `shifted_dense` makes."""
    lu = lu_factor(op.shifted_dense(shift))
    return lambda b: lu_solve(lu, b)


def solve_linear(op: OperatorMatrix, shift, rhs: np.ndarray) -> GridFunction:
    """Solve (L + shift) u = rhs with zero exterior data.

    shift may be a scalar or a nodal array, but must be nonnegative: then the
    matrix is a strictly diagonally dominant M-matrix, the solve cannot fail,
    and rhs >= 0 implies u >= 0 (discrete comparison).  rhs holds one value
    per grid node.
    """
    shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), (op.grid.n_interior,))
    if np.any(shift_vec < 0):
        raise DomainError("shift must be nonnegative")
    rhs_vals = np.asarray(rhs, dtype=float)
    if rhs_vals.shape != (op.grid.n_interior,):
        raise GridMismatchError("rhs length does not match the grid")
    return GridFunction(op.grid, _full_solver(op, shift_vec)(rhs_vals))


def _sandwich_shift(p: float, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodal shift D = 1.1 p cap^(p-1) with cap = max(|lo|, |hi|), and cap.

    D bounds the Lipschitz constant of |t|^(p-1) t on each node's sandwich
    range [-cap, cap] (Sattinger 1972), so r(t) = D t - |t|^(p-1) t is
    increasing there and the shifted sweep is monotone while |u| <= cap.
    """
    cap = np.maximum(np.abs(lo), np.abs(hi))
    return 1.1 * p * cap ** (p - 1.0), cap


def _signed_power_to(out: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    # |u|^(p-1) u, as `barriers._signed_power`, into out with one temporary
    np.abs(u, out=out)
    out **= p
    out *= np.sign(u)
    return out


def _monotone_iterate(
    solve,
    shift,
    apply,
    f: np.ndarray,
    p: float,
    u0: np.ndarray,
    cfg: IterationConfig,
    cap: np.ndarray,
    where,
    sizes=None,
    nested: int = 0,
):
    """Shifted fixed-point loop for A u + |u|^(p-1) u = f on the free nodes,
    the leading sizes[j] rows (default all) of each column j of u0 (h, k);
    a 1-D u0 is one column and gives (u, trace).

    apply(v) is A v, so the load is apply of the imposed values; solve(b)
    applies the inverse of A + diag(shift) on the free rows, zero past them.
    A column freezes on its stop test.  The first `nested` columns are
    nested levels: before every sweep each takes the max with the one
    before it (a max of sub-solutions is one), and freezes only with or
    after it, after a last such max.  An iterate leaving |u| <= cap, where
    shift is certified, a decreasing step, or a stop whose relative
    residual exceeds sqrt(sup_tol) (a large shift makes the steps small
    long before the fixed point) raises ConvergenceError naming the
    column's `where`; so does running out of sweeps, with the largest
    nodal shift on its free rows.
    """
    if u0.ndim == 1:
        u, (trace,) = _monotone_iterate(
            lambda b: solve(b[:, 0])[:, None], shift, lambda v: apply(v[:, 0])[:, None],
            f, p, u0[:, None], cfg, cap, [where],
        )
        return u[:, 0], trace
    h, k = u0.shape
    sizes = np.full(k, h) if sizes is None else np.asarray(sizes)
    free = np.arange(h)[:, None] < sizes
    shift = np.broadcast_to(np.asarray(shift, dtype=float), (h,))[:, None]
    cap = np.broadcast_to(cap, (h,))[:, None]
    f = f[:, None]
    rhs = f - apply(np.where(free, 0.0, u0))  # the source less the load
    u = u0.copy()
    traces = [IterationTrace() for _ in range(k)]
    active = np.ones(k, dtype=bool)

    def lift(cols):
        # the nested columns in `cols` take the running max from the left
        np.copyto(u[:, :nested], np.maximum.accumulate(u[:, :nested], axis=1),
                  where=cols[:nested])

    # one scratch block for the right-hand side and the tests: each (h, k)
    # temporary adds to the peak memory
    work = np.empty_like(u)
    lift(active)
    for sweep in range(1, cfg.max_iters + 1):
        np.subtract(rhs, _signed_power_to(work, u, p), out=work)
        work += shift * u
        u_next = solve(work)
        np.copyto(u_next, u, where=~free)  # the imposed rows stay put
        left = active & np.any(np.abs(u_next, out=work) > cap, axis=0)
        if left.any():
            raise ConvergenceError(
                f"{where[np.argmax(left)]}: an iterate left the sandwich range "
                "max(|sub|, |super|) on which the nodal shift is certified"
            )
        step = np.subtract(u_next, u, out=work)
        # imposed rows step by exactly 0, so the extremes are the free rows'
        low, high = step.min(axis=0), step.max(axis=0)
        falls = active & (low < -MONOTONE_SLACK)
        if falls.any():
            j = np.argmax(falls)
            raise ConvergenceError(
                f"{where[j]}: monotone iteration produced a decreasing step ({low[j]:.3e}); "
                "the Lipschitz shift is too small for the sandwich range"
            )
        change = np.maximum(high, -low)  # max |step|
        np.copyto(u_next, u, where=~active)  # a frozen column keeps its values
        u = u_next
        size = np.max(np.abs(u, out=work), axis=0, where=free, initial=0.0)
        frozen = ~active | (change < cfg.sup_tol * (1.0 + size))
        frozen[:nested] = np.logical_and.accumulate(frozen[:nested])
        for j in np.flatnonzero(active):
            traces[j].sup_changes.append(float(change[j]))
            if frozen[j]:
                traces[j].iterations = sweep
        lift(active)
        active = ~frozen
        if not active.any():
            break
    else:
        j = np.argmax(active)
        raise ConvergenceError(
            f"{where[j]}: monotone iteration did not converge within {cfg.max_iters} "
            f"sweeps (last sup-change {traces[j].sup_changes[-1]:.3e}, largest nodal "
            f"shift {float(np.max(shift[: sizes[j]])):.1e})"
        )
    g = _signed_power_to(work, u, p)
    r = apply(u)
    r += g
    r -= f
    residual = np.max(np.abs(r, out=r), axis=0, where=free, initial=0.0)
    scale = 1.0 + np.max(np.abs(np.subtract(rhs, g, out=g), out=g), axis=0, where=free,
                         initial=0.0)
    for j, trace in enumerate(traces):
        trace.final_residual = float(residual[j])
        trace.final_residual_rel = trace.final_residual / float(scale[j])
        if trace.final_residual_rel > np.sqrt(cfg.sup_tol):
            raise ConvergenceError(
                f"{where[j]}: the sup-change test stopped at sweep {trace.iterations} with "
                f"relative residual {trace.final_residual_rel:.3e}, above sqrt(sup_tol) = "
                f"{np.sqrt(cfg.sup_tol):.3e}"
            )
    return u, traces


def solve_semilinear(
    params: ProblemParams,
    op: OperatorMatrix,
    sub: GridFunction,
    super_: GridFunction,
    cfg: IterationConfig,
) -> tuple[GridFunction, IterationTrace]:
    """Monotone solve of L u + |u|^(p-1) u = f between an ordered pair.

    Starts from the sub-solution and sweeps upward with the nodal shift
    `_sandwich_shift(p, sub, super_)`, factored once; returns the limit and
    its trace.  The result satisfies sub <= u <= super nodewise and solves
    the discrete system to the recorded residual.  An iterate outside
    max(|sub|, |super_|), which means super_ is not a super-solution, raises
    ConvergenceError.
    """
    if sub.grid != op.grid or super_.grid != op.grid:
        raise GridMismatchError("sub/super grids do not match the operator")
    if np.any(sub.values > super_.values + MONOTONE_SLACK):
        raise DomainError("sub-solution exceeds super-solution somewhere")
    shift, cap = _sandwich_shift(params.p, sub.values, super_.values)
    u, trace = _monotone_iterate(
        _full_solver(op, shift), shift, lambda u: op.apply(GridFunction(op.grid, u)).values,
        params.source.value(op.grid.nodes), params.p, sub.values, cfg, cap, "solve_semilinear",
    )
    return GridFunction(op.grid, u), trace


@dataclass
class BlowupLevel:
    shell: int
    solution: GridFunction
    trace: IterationTrace


@dataclass
class BlowupResult:
    """The exhaustion levels and the checks on the final profile:
    `sandwich_ok` holds when it lies between its comparison lower bound
    (0 below a full-depth final level, W otherwise) and U on every node."""

    levels: list
    monotone_in_levels: bool
    sandwich_ok: bool
    # (super, sub) `BarrierReport`s of the globalized pair on the discrete
    # system, mu = the chosen lambda, worst_x = the node's d
    pair_reports: tuple

    @property
    def final(self) -> GridFunction:
        """The blow-up profile: the last level's solution."""
        return self.levels[-1].solution

    @property
    def final_free(self) -> np.ndarray:
        """Nodes free at the last level, d > 1/shell."""
        return self.final.grid.free_mask(self.levels[-1].shell)


def solve_blowup(
    params: ProblemParams,
    grid: Grid1D,
    cfg: IterationConfig,
    pair: tuple[BarrierSpec, BarrierSpec] | None = None,
) -> BlowupResult:
    """Boundary blow-up solution by exhaustion of the interval.

    For each shell n the discrete semilinear system is solved on the nodes with
    d > 1/n, with the global sub-solution W imposed at the remaining nodes and
    zero beyond the interval; the shells increase, each level is raised to
    the previous one (a discrete sub-solution of the next problem), and level
    solutions increase.  A shell deeper than the grid resolution frees every
    node, which is the recommended last entry: the resulting system carries no
    imposed collar values at all, so its solution is the unique discrete fixed
    point independent of which admissible W seeded the run.  The returned
    profile equals the last level inside its shell and the imposed W outside.

    The levels are slices of one centre-out folded system (see the module
    docstring) and the columns of one `_monotone_iterate` block, solved with
    the leading blocks of the one `lu_factor`, whose blocks end at the level
    sizes.  The imposed levels start from W and are nested; a full-depth
    level starts from 0.  A shell with m = 0 yields no level; the deepest
    must free some node.  Every level uses the nodal shift `_sandwich_shift`
    of (W, U), and an iterate leaving max(|W|, |U|) raises ConvergenceError
    naming its shell and the globalization lambda, which sets the shift.
    The operator is assembled here by `assemble_centre_out`, folded row by
    row, so the path holds the folded operator and its factorization (two
    h x h arrays, h = n_half) and never an n x n array or the h x n
    left-half rows.
    A tabulated source whose table is not symmetric raises DomainError.

    Without `pair` the barriers are `make_existence_pair` of the problem's
    zone; the critical-rate family passes `make_special_pair(params, t)`.
    `barriers.globalize_pair` globalizes the pair on the folded system: W
    must be a discrete sub-solution on the rows the deepest W-imposing level
    frees, and U a discrete super-solution on those the deepest level frees,
    as the comparison argument for the levels needs.  W is the sub-solution
    sharpened at the chosen lambda, c sub + lambda V with c >= 1, so every
    imposed level starts nearer its limit and is a tighter lower bound; the
    shift, set by max(|W|, |U|), is the one c = 1 gives, and a full-depth
    level does not depend on W.  The globalized pair exists only as its
    nodal values (W, U) on the folded system, and the result keeps its
    reports, `pair_reports`, not the pair.  The pair's only grid-free
    operator evaluation is its construction on the collar points.

    `sandwich_ok` holds when the final profile lies between the lower bound
    the discrete comparison principle certifies for the final level and U,
    on every node.  That bound is W unless the final level is full depth;
    a full-depth level frees rows where W is no sub-solution, and its bound
    is its start 0 (a sub-solution, as f >= 0).  U is a super-solution on
    every row the deepest level frees.
    """
    if not params.source.mirror_symmetric:
        raise DomainError(
            "solve_blowup solves the mirror-folded system, which needs a source "
            "symmetric about x = 1/2; the tabulated source table is not"
        )
    # every datum is a function of d, so the levels are mirror-symmetric and
    # are solved on the left half, where d = x increases with the index
    h = grid.n_half
    x = grid.nodes[:h]
    sizes = [int(np.count_nonzero(x > 1.0 / shell)) for shell in cfg.exhaustion_levels]
    if sizes[-1] == h and (params.source.is_zero or not params.source.sign_nonneg):
        # the deepest shell is below the grid resolution: nothing is imposed
        # and the discrete system has a unique fixed point.  Without a source
        # that fixed point is the zero solution (the blow-up amplitude lives
        # in the imposed collar data), so a full-depth shell is only
        # meaningful for source-driven problems with f >= 0, where the zero
        # start is a certified sub-solution.
        raise DomainError(
            "a full-depth exhaustion shell needs a nonzero, nonnegative "
            "source; with f = 0 the free discrete system only has the zero "
            "solution, so keep an imposed collar shell"
        )
    if sizes[-1] == 0:
        raise DomainError("grid has no nodes inside the deepest exhaustion shell")
    if pair is None:
        pair = make_existence_pair(params, classify_regime(params))

    # centre-out order (decreasing d): the free set of each shell is the
    # leading m unknowns, so one factorization of the folded system, with
    # blocks ending at the level sizes, serves every level
    A = assemble_centre_out(grid, params.alpha)
    # the full-depth level climbs from 0, so only the levels that impose W need it
    imposing = max((m for m in sizes if m < h), default=0)
    (U, W), reports = globalize_pair(
        pair, params, x[::-1], A, imposing, sizes[-1]
    )
    f = params.source.value(x)[::-1]
    p = params.p
    shift, cap = _sandwich_shift(p, W, U)
    a = A.copy()
    a[np.diag_indices(h)] += shift
    lu = lu_factor(a, sizes)

    # a full-depth level starts from 0, a sub-solution as f >= 0
    shells = [(shell, m) for shell, m in zip(cfg.exhaustion_levels, sizes) if m]
    u0 = np.empty((h, len(shells)))
    for j, (_, m) in enumerate(shells):
        u0[:, j] = 0.0 if m == h else W
        if m < h and params.source.sign_nonneg and np.all(W[m:] >= 0.0):
            # for f >= 0 and nonnegative imposed data the zero function is
            # itself a sub-solution of the level problem, so the climb may
            # start from max(W, 0); this avoids the deep negative excursion
            # of the torsion-globalized W
            u0[:m, j] = np.maximum(W[:m], 0.0)

    def apply(v):
        # in bands of rows: one product grows OpenBLAS's packing buffers
        out = np.empty(v.shape)
        for r in range(0, h, BLOCK_CAP):
            np.matmul(A[r : r + BLOCK_CAP], v, out=out[r : r + BLOCK_CAP])
        return out

    # the imposed levels lead; nesting them keeps up the warm start
    # max(u[:m], W[:m]) from the level before at every sweep
    ms = [m for _, m in shells]
    Y, traces = _monotone_iterate(
        lambda b: lu_solve(lu, b, ms), shift, apply, f, p, u0, cfg, cap,
        [f"exhaustion shell {shell} (globalization lambda {reports[0].mu:.0f})"
         for shell, _ in shells],
        ms, sum(m < h for m in ms),
    )
    levels: list[BlowupLevel] = []
    monotone_levels = True
    for j, ((shell, m), trace) in enumerate(zip(shells, traces)):
        # the monotone-in-levels property belongs to the imposed-W shells; a
        # final full-depth shell swaps the imposed collar for solved values and
        # sits outside that comparison
        if j and m < h:
            shallow = Y[: ms[j - 1], j - 1]
            defect = np.min((Y[: ms[j - 1], j] - shallow) / (1.0 + np.abs(shallow)))
            if defect < -100 * MONOTONE_SLACK:
                monotone_levels = False
        levels.append(
            BlowupLevel(
                shell=shell,
                solution=GridFunction(grid, grid.mirror(Y[::-1, j])),
                trace=trace,
            )
        )
    u = Y[:, -1]

    # the final level's comparison bound: W, or below a full-depth level
    # its zero start (f >= 0); U bounds every row above
    lower = np.zeros(h) if sizes[-1] == h else W
    sandwich_ok = bool(
        np.all(u >= lower - 1e-9 * (1.0 + np.abs(lower)))
        and np.all(u <= U + 1e-9 * (1.0 + np.abs(U)))
    )
    return BlowupResult(
        levels=levels,
        monotone_in_levels=monotone_levels,
        sandwich_ok=sandwich_ok,
        pair_reports=reports,
    )
