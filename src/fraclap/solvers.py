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

Both solvers run the same loop, `_monotone_iterate`.  It takes the operator
with the level's imposed values in place, apply(u), and forms the load
apply(0), each sweep's right-hand side and the final residual
apply(u) + |u|^(p-1) u - f itself: `solve_semilinear` passes `op.apply`
(nothing imposed, so the load is zero) and `solve_blowup` the leading m rows
of the centre-out folded operator, applied to u followed by the imposed
W[m:].

The factorization is `lu_factor`, a numpy block LDU without pivoting whose
blocks end at the level sizes: each diagonal block holds the inverse of its
Schur block, and a level solve (`lu_solve`) is block substitution over the
level's leading blocks, on views of the factors.  L + D is a row-strictly
dominant M-matrix, so its Schur complements are too and no pivoting is
needed; each Schur block is checked to be row-strictly dominant, and a
failure raises ConvergenceError.

Every blow-up datum (the source, the zero exterior, the barrier pair) is a
function of d = min(x, 1-x), so each level is mirror-symmetric and
`solve_blowup` works with the folded left-half system of
`OperatorMatrix.folded`: (n+1)/2 unknowns, an eighth of the LU's flops and
a quarter of each solve's.  Folding adds each right-half column to its mirror, so the
off-diagonals stay <= 0 and the row sums are unchanged: the folded L + D is
still a row-strictly dominant M-matrix and the comparison argument above
holds for it unchanged.  `solve_linear` and `solve_semilinear` keep the full
matrix, because their data need not be symmetric (a right-hand side can be
anything), and share one in-place factorization of fixed-size blocks,
`_full_solver`.  Both monotone solvers take the same shift, `_sandwich_shift`
of their ordered pair, and factor once.

Every solver works with zero exterior data.  Exterior data g enters as the
source term G = `fraclap.operator.exterior_potential`(g): solve with the
source f + G tabulated at the grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barriers import (
    BarrierSpec,
    _signed_power,
    globalize_pair,
    make_existence_pair,
)
from .errors import ConvergenceError, DomainError, GridMismatchError
from .exponents import ProblemParams, classify_regime
from .grid import Grid1D, GridFunction
from .operator import OperatorMatrix, assemble

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
    """Record of one monotone iteration.  A decreasing step, and a stop that is
    not a converged one, raise, so a returned trace is monotone and
    converged by construction."""

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


def lu_solve(lu: tuple[np.ndarray, tuple], b: np.ndarray, m: int | None = None) -> np.ndarray:
    """Solve with the leading m x m block (default: all) of a `lu_factor`
    matrix; m must be one of its block edges.  Block forward substitution
    with L D, then back substitution with U, on views of the factors."""
    a, edges = lu
    m = a.shape[0] if m is None else m
    e = edges[: edges.index(m) + 1]
    x = np.empty(m)
    for k0, k1 in zip(e[:-1], e[1:]):
        x[k0:k1] = a[k0:k1, k0:k1] @ (b[k0:k1] - a[k0:k1, :k0] @ x[:k0])
    for k0, k1 in zip(e[-2::-1], e[:0:-1]):
        x[k0:k1] -= a[k0:k1, k1:m] @ x[k1:m]
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


def _monotone_iterate(
    solve,
    shift,
    apply,
    f: np.ndarray,
    p: float,
    u0: np.ndarray,
    cfg: IterationConfig,
    cap: np.ndarray,
    where: str,
) -> tuple[np.ndarray, IterationTrace]:
    """Shifted fixed-point loop for A u + |u|^(p-1) u = f on the free nodes.

    apply(u) is A u with the imposed values of the level in place, so the
    load of the imposed values is apply(0); each sweep solves with the
    right-hand side f - load - |u|^(p-1) u + shift u, and the final residual
    is apply(u) + |u|^(p-1) u - f.  solve(b) applies the inverse of
    A + diag(shift), and shift is certified on the nodal range |u| <= cap.
    An iterate that leaves that range, or a decreasing step, is a hard error,
    and so is a stop whose relative residual exceeds sqrt(sup_tol) (a large
    shift makes the steps, and with them the sup-change test, small long
    before the fixed point).  Every ConvergenceError names `where`.
    """
    trace = IterationTrace()
    load = apply(np.zeros_like(u0))
    u = u0.copy()
    for k in range(1, cfg.max_iters + 1):
        u_next = solve(f - load - _signed_power(u, p) + shift * u)
        if np.any(np.abs(u_next) > cap):
            raise ConvergenceError(
                f"{where}: an iterate left the sandwich range max(|sub|, |super|) "
                "on which the nodal shift is certified"
            )
        defect = float(np.min(u_next - u))
        if defect < -MONOTONE_SLACK:
            raise ConvergenceError(
                f"{where}: monotone iteration produced a decreasing step ({defect:.3e}); "
                "the Lipschitz shift is too small for the sandwich range"
            )
        change = float(np.max(np.abs(u_next - u)))
        trace.sup_changes.append(change)
        u = u_next
        if change < cfg.sup_tol * (1.0 + float(np.max(np.abs(u)))):
            trace.iterations = k
            break
    else:
        raise ConvergenceError(
            f"{where}: monotone iteration did not converge within {cfg.max_iters} "
            f"sweeps (last sup-change {trace.sup_changes[-1]:.3e})"
        )
    r = apply(u) + _signed_power(u, p) - f
    trace.final_residual = float(np.max(np.abs(r)))
    trace.final_residual_rel = trace.final_residual / (
        1.0 + float(np.max(np.abs(f - load - _signed_power(u, p))))
    )
    if trace.final_residual_rel > np.sqrt(cfg.sup_tol):
        raise ConvergenceError(
            f"{where}: the sup-change test stopped at sweep {k} with relative "
            f"residual {trace.final_residual_rel:.3e}, above sqrt(sup_tol) = "
            f"{np.sqrt(cfg.sup_tol):.3e}"
        )
    return u, trace


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
    levels: list
    pair_global: tuple
    monotone_in_levels: bool
    sandwich_ok: bool

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
    zero beyond the interval; the shells increase, each level starts from the
    previous one (a discrete sub-solution of the next problem), and level
    solutions increase.  A shell deeper than the grid resolution frees every
    node, which is the recommended last entry: the resulting system carries no
    imposed collar values at all, so its solution is the unique discrete fixed
    point independent of which admissible W seeded the run.  The returned
    profile equals the last level inside its shell and the imposed W outside.

    Every level iterates with the same nodal shift, `_sandwich_shift` of the
    globalized sandwich pair (W, U).  The system and every nodal datum are
    put in centre-out order once, so the free set of a shell is the leading
    m = #{d > 1/shell} unknowns and each level is a slice: it starts from
    max(u[:m], W[:m]), imposes W[m:], applies the rows A[:m] and solves with
    the leading block of the one factorization (`lu_factor`, with blocks
    ending at the level sizes).  A shell with m = 0 yields no level; the
    deepest shell must free some node.  An iterate that
    leaves the range max(|W|, |U|) the shift is certified on raises
    ConvergenceError naming its shell.

    Without `pair` the barriers are `make_existence_pair` of the problem's
    zone; the critical-rate family passes `make_special_pair(params, t)`.
    The pair is globalized grid-free, with the closed-form torsion of
    `barriers.torsion`; the one LU factorization on this path is the
    exhaustion system's.  The source, the zero exterior and the pair depend
    on d = min(x, 1-x) alone, so every level is mirror-symmetric: the pair's
    verification nodes, the factorization and the sweeps all work on the
    left half (`OperatorMatrix.folded`), and the levels are mirrored back.
    A tabulated source whose table is not symmetric raises DomainError.
    The operator is assembled here and folded at once, so the path never
    holds an n x n array, nor the assembled rows beside the LU.
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
    sup_g, sub_g = globalize_pair(pair, params, x[x > 2e-6])

    # centre-out order (decreasing d): the free set of each shell is the
    # leading m unknowns, so one factorization of the folded system, with
    # blocks ending at the level sizes, serves every level
    A = assemble(grid, params.alpha).folded()[::-1, ::-1].copy()
    W = np.asarray(sub_g.value(x), dtype=float)[::-1]
    U = np.asarray(sup_g.value(x), dtype=float)[::-1]
    f = params.source.value(x)[::-1]
    p = params.p
    shift, cap = _sandwich_shift(p, W, U)
    a = A.copy()
    a[np.diag_indices(h)] += shift
    lu = lu_factor(a, sizes)

    levels: list[BlowupLevel] = []
    u = W
    prev = 0
    monotone_levels = True
    for shell, m in zip(cfg.exhaustion_levels, sizes):
        if m == 0:
            continue

        def apply(v):
            # the folded operator with W imposed outside the shell; called
            # only by this level's `_monotone_iterate` below
            return A[:m] @ np.concatenate([v, W[m:]])

        if m == h:
            # full-depth shell (admissible source checked above): climb from 0
            u0 = np.zeros(m)
        else:
            u0 = np.maximum(u[:m], W[:m])
            if params.source.sign_nonneg and np.all(W[m:] >= 0.0):
                # for f >= 0 and nonnegative imposed data the zero function is
                # itself a sub-solution of the level problem, so the climb may
                # start from max(previous level, W, 0); this avoids the deep
                # negative excursion of the torsion-globalized W
                u0 = np.maximum(u0, 0.0)
        uf, trace = _monotone_iterate(
            lambda b: lu_solve(lu, b, m), shift[:m], apply, f[:m], p, u0, cfg, cap[:m],
            f"exhaustion shell {shell}",
        )
        # the monotone-in-levels property belongs to the imposed-W shells; a
        # final full-depth shell swaps the imposed collar for solved values and
        # sits outside that comparison
        if prev and m < h:
            defect = np.min((uf[:prev] - u[:prev]) / (1.0 + np.abs(u[:prev])))
            if defect < -100 * MONOTONE_SLACK:
                monotone_levels = False
        u, prev = np.concatenate([uf, W[m:]]), m
        levels.append(
            BlowupLevel(
                shell=shell,
                solution=GridFunction(grid, grid.mirror(u[::-1])),
                trace=trace,
            )
        )

    sandwich_ok = bool(
        np.all(u >= W - 1e-9 * (1.0 + np.abs(W)))
        and np.all(u <= U + 1e-9 * (1.0 + np.abs(U)))
    )
    return BlowupResult(
        levels=levels,
        pair_global=(sup_g, sub_g),
        monotone_in_levels=monotone_levels,
        sandwich_ok=sandwich_ok,
    )
