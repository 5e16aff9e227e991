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
level, and the nodes are ordered centre-out, so every free set is a leading
block and one LU factorization of L + D serves all levels.

Every blow-up datum (the source, the zero exterior, the barrier pair) is a
function of d = min(x, 1-x), so each level is mirror-symmetric and
`solve_blowup` works with the folded left-half system of
`OperatorMatrix.folded`: (n+1)/2 unknowns, an eighth of the LU's flops and
a quarter of each solve's.  Folding adds each right-half column to its mirror, so the
off-diagonals stay <= 0 and the row sums are unchanged: the folded L + D is
still a row-strictly dominant M-matrix and the comparison argument above
holds for it unchanged.  `solve_linear` and `solve_semilinear` keep the full
matrix, because their data need not be symmetric (a tabulated source or
right-hand side can be anything).  The one automatic shift of
`solve_semilinear` is nodal and grows, refactorized, wherever an iterate
outgrows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .barriers import (
    BarrierSpec,
    _signed_power,
    globalize_pair,
    make_existence_pair,
    make_special_pair,
    torsion,
)
from .errors import ConvergenceError, DomainError, GridMismatchError
from .exponents import KernelConstants, ProblemParams, RegimeZone, classify_regime
from .fields import SourceField
from .grid import Grid1D, GridFunction
from .operator import OperatorMatrix, assemble

__all__ = [
    "IterationConfig",
    "IterationTrace",
    "BlowupLevel",
    "BlowupResult",
    "ComparisonReport",
    "solve_linear",
    "solve_semilinear",
    "solve_blowup",
    "check_comparison",
]

MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class IterationConfig:
    """Controls for the monotone iteration and the exhaustion schedule.

    An explicit lipschitz_shift is a constant shift in both solvers.  None
    means automatic: `solve_blowup` uses the nodal shift
    1.1 * p * max(|W|, |U|)^(p-1) of its globalized sandwich pair for every
    level, and `solve_semilinear` grows a nodal shift from the starting
    iterate, refactorizing whenever an iterate leaves the range it certifies.
    """

    lipschitz_shift: float | None = None
    max_iters: int = 500
    sup_tol: float = 1e-9
    exhaustion_levels: tuple = (8, 16, 32, 64, 128)

    def __post_init__(self):
        if self.lipschitz_shift is not None and self.lipschitz_shift <= 0:
            raise DomainError("lipschitz_shift must be positive when given")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if self.sup_tol <= 0:
            raise DomainError("sup_tol must be positive")
        levels = tuple(int(v) for v in self.exhaustion_levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DomainError("exhaustion_levels must be strictly increasing")
        object.__setattr__(self, "exhaustion_levels", levels)


@dataclass
class IterationTrace:
    sup_changes: list = field(default_factory=list)
    monotone: bool = True
    worst_monotone_defect: float = 0.0
    iterations: int = 0
    converged: bool = False
    shift_rebuilds: int = 0
    final_residual: float = float("nan")
    final_residual_rel: float = float("nan")

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "monotone": self.monotone,
            "worst_monotone_defect": self.worst_monotone_defect,
            "shift_rebuilds": self.shift_rebuilds,
            "final_residual": self.final_residual,
            "final_residual_rel": self.final_residual_rel,
            "sup_change_last": self.sup_changes[-1] if self.sup_changes else None,
            "sup_changes": list(self.sup_changes),
        }


def solve_linear(op: OperatorMatrix, shift, rhs) -> GridFunction:
    """Solve (L + shift) u = rhs with zero exterior data.

    shift may be a scalar or a nodal array, but must be nonnegative: then the
    matrix is a strictly diagonally dominant M-matrix, the solve cannot fail,
    and rhs >= 0 implies u >= 0 (discrete comparison).
    """
    shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), (op.grid.n_interior,))
    if np.any(shift_vec < 0):
        raise DomainError("shift must be nonnegative")
    rhs_vals = rhs.values if isinstance(rhs, GridFunction) else np.asarray(rhs, dtype=float)
    if rhs_vals.shape != (op.grid.n_interior,):
        raise GridMismatchError("rhs length does not match the grid")
    A = op.shifted_dense(shift_vec)
    try:
        lu = lu_factor(A, overwrite_a=True)
    except Exception as exc:
        raise ConvergenceError(
            f"linear solve failed ({exc}); the assembled system should be an M-matrix, "
            "so this points at assembly corruption"
        ) from exc
    return GridFunction(op.grid, lu_solve(lu, rhs_vals))


def _monotone_iterate(
    solve,
    shift,
    rhs_of,
    residual_of,
    u0: np.ndarray,
    cfg: IterationConfig,
    guard=None,
) -> tuple[np.ndarray, IterationTrace]:
    """Core shifted fixed-point loop; rhs_of(u) excludes the shift term.

    solve(b) applies the inverse of A + diag(shift).  Any decreasing step is a
    hard error: the shift was declared adequate for the iterates and was not.
    guard(u_next), when given, sees every sweep before it is accepted.  It may
    raise, return None to accept the sweep, or return a rebuilt (solve, shift)
    pair; the sweep is then discarded and the loop resumes from the last
    accepted iterate, which is itself a discrete sub-solution, so the monotone
    construction stays intact.
    """
    trace = IterationTrace()
    u = u0.copy()
    k = 0
    while k < cfg.max_iters:
        u_next = solve(rhs_of(u) + shift * u)
        k += 1
        rebuilt = guard(u_next) if guard is not None else None
        if rebuilt is not None:
            solve, shift = rebuilt
            trace.shift_rebuilds += 1
            continue
        defect = float(np.min(u_next - u))
        if defect < -MONOTONE_SLACK:
            trace.monotone = False
            trace.worst_monotone_defect = min(trace.worst_monotone_defect, defect)
            raise ConvergenceError(
                f"monotone iteration produced a decreasing step ({defect:.3e}); "
                "the Lipschitz shift is too small for the sandwich range"
            )
        change = float(np.max(np.abs(u_next - u)))
        trace.sup_changes.append(change)
        u = u_next
        if change < cfg.sup_tol * (1.0 + float(np.max(np.abs(u)))):
            trace.iterations = k
            trace.converged = True
            break
    else:
        trace.iterations = cfg.max_iters
        last = trace.sup_changes[-1] if trace.sup_changes else float("nan")
        raise ConvergenceError(
            f"monotone iteration did not converge within {cfg.max_iters} sweeps "
            f"(last sup-change {last:.3e})"
        )
    r = residual_of(u)
    trace.final_residual = float(np.max(np.abs(r)))
    trace.final_residual_rel = trace.final_residual / (
        1.0 + float(np.max(np.abs(rhs_of(u))))
    )
    return u, trace


def solve_semilinear(
    params: ProblemParams,
    op: OperatorMatrix,
    sub: GridFunction,
    super_: GridFunction,
    cfg: IterationConfig = IterationConfig(),
    source: SourceField | None = None,
) -> tuple[GridFunction, IterationTrace]:
    """Monotone solve of L u + |u|^(p-1) u = f between an ordered pair.

    Starts from the sub-solution and sweeps upward; returns the limit and its
    trace.  The result satisfies sub <= u <= super nodewise and solves the
    discrete system to the recorded residual.
    """
    if sub.grid != op.grid or super_.grid != op.grid:
        raise GridMismatchError("sub/super grids do not match the operator")
    if np.any(sub.values > super_.values + MONOTONE_SLACK):
        raise DomainError("sub-solution exceeds super-solution somewhere")
    f_vals = (source or params.source).value(op.grid.nodes)
    A = op.shifted_dense(0.0)
    load = op.exterior_load

    def rhs_of(u):
        return f_vals - load - _signed_power(u, params.p)

    def residual_of(u):
        return A @ u + load + _signed_power(u, params.p) - f_vals

    def factored(shift):
        M = A.copy()
        M[np.diag_indices_from(M)] += shift
        lu = lu_factor(M, overwrite_a=True)
        return (lambda b: lu_solve(lu, b)), shift

    guard = None
    if cfg.lipschitz_shift is not None:
        shift = cfg.lipschitz_shift
    else:
        # grow the nodal shift only where an iterate needs it, which keeps it
        # close to the local Lipschitz bound
        amp = np.maximum(np.abs(sub.values) * 1.5, 1e-6)
        shift = 1.1 * params.p * amp ** (params.p - 1.0)

        def guard(u_next):
            nonlocal amp
            if float(np.max(np.abs(u_next) - amp)) <= 0.0:
                return None
            amp = np.maximum(amp, np.abs(u_next) * 1.5)
            return factored(1.1 * params.p * amp ** (params.p - 1.0))

    u, trace = _monotone_iterate(
        *factored(shift), rhs_of, residual_of, sub.values, cfg, guard
    )
    return GridFunction(op.grid, u, sub.exterior), trace


def _factor_nested(a: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU of (a + diag(diag)).T, computed in the memory of a, whose leading
    m x m block factors the leading m x m block of a + diag(diag) for every m.

    That needs partial pivoting to swap no rows, which holds when a + diag(diag)
    is row-strictly diagonally dominant (its transpose is column dominant).
    The pivots are checked, not assumed.  `_leading_solver` solves a block.
    """
    a[np.diag_indices_from(a)] += diag
    lu, piv = lu_factor(a.T, overwrite_a=True, check_finite=False)
    if np.any(piv != np.arange(piv.size)):
        raise ConvergenceError(
            "the shifted exhaustion system is not diagonally dominant: partial "
            "pivoting swapped rows, so its leading blocks do not factor the levels"
        )
    return lu, piv


def _leading_solver(lu: np.ndarray, piv: np.ndarray, m: int):
    """Solve with the leading m x m block of a `_factor_nested` matrix."""
    block = np.asfortranarray(lu[:m, :m])  # one copy per level; lu itself if m == n
    return lambda b: lu_solve((block, piv[:m]), b, trans=1, check_finite=False)


@dataclass
class BlowupLevel:
    shell: int
    free: np.ndarray
    solution: GridFunction
    trace: IterationTrace


@dataclass
class BlowupResult:
    params: ProblemParams
    final: GridFunction
    levels: list
    pair_collar: tuple
    pair_global: tuple
    monotone_in_levels: bool
    sandwich_ok: bool
    notes: str = ""

    @property
    def final_free(self) -> np.ndarray:
        return self.levels[-1].free


def solve_blowup(
    params: ProblemParams,
    grid: Grid1D,
    kc: KernelConstants,
    cfg: IterationConfig = IterationConfig(),
    pair: tuple[BarrierSpec, BarrierSpec] | None = None,
    family_t: float | None = None,
    op: OperatorMatrix | None = None,
    delta: float = 0.1,
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

    Every level iterates with the same nodal shift, taken from the globalized
    sandwich pair (W, U) or given as cfg.lipschitz_shift, so one factorization
    serves all levels (`_factor_nested`).  An iterate that leaves the range
    max(|W|, |U|) the automatic shift is certified on raises ConvergenceError
    naming its shell.

    The pair is globalized grid-free, with the closed-form torsion of
    `barriers.torsion`; the one LU factorization on this path is the
    exhaustion system's.  The source, the zero exterior and the pair depend
    on d = min(x, 1-x) alone, so every level is mirror-symmetric: the pair's
    verification nodes, the factorization and the sweeps all work on the
    left half (`OperatorMatrix.folded`), and the levels are mirrored back.
    A tabulated source whose table is not symmetric raises DomainError.
    Without `op` the operator is assembled here and folded at once, so the
    path never holds an n x n array, nor the assembled rows beside the LU.

    Only zero exterior data is supported: the levels are assembled with the
    zero exterior, so nonzero `params.exterior` raises DomainError instead of
    being dropped.
    """
    if not params.exterior.is_zero:
        raise DomainError(
            f"solve_blowup supports zero exterior data only, got kind "
            f"{params.exterior.kind!r}"
        )
    if not params.source.mirror_symmetric:
        raise DomainError(
            "solve_blowup solves the mirror-folded system, which needs a source "
            "symmetric about x = 1/2; the tabulated source table is not"
        )
    max_shell = max(cfg.exhaustion_levels)
    if np.all(grid.free_mask(max_shell)) and (
        params.source.is_zero or not params.source.sign_nonneg
    ):
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
    regime = classify_regime(params, kc=kc)
    if pair is None:
        if family_t is not None:
            pair = make_special_pair(params, kc, family_t, delta=delta)
        elif regime.zone in (
            RegimeZone.EXISTENCE_INTERACTION,
            RegimeZone.WEAK_SOURCE,
            RegimeZone.STRONG_SOURCE,
        ):
            pair = make_existence_pair(params, kc, regime, delta=delta)
        else:
            raise DomainError(f"parameters fall in zone {regime.zone}, not an existence zone")

    # every datum is a function of d, so the levels are mirror-symmetric and
    # are solved on the left half, where d = x increases with the index
    h = grid.n_half
    x = grid.nodes[:h]
    sup_g, sub_g = globalize_pair(pair, torsion(params.alpha), params, x[x > 2e-6])

    if not np.any(grid.free_mask(max_shell)):
        raise DomainError("grid has no nodes inside the deepest exhaustion shell")
    A_f = (op if op is not None else assemble(grid, params.alpha)).folded()

    W = np.asarray(sub_g.value(x), dtype=float)
    U = np.asarray(sup_g.value(x), dtype=float)
    f = params.source.value(x)
    p = params.p

    amp = np.maximum(np.abs(W), np.abs(U))
    if cfg.lipschitz_shift is None:
        # Lipschitz bound of |t|^(p-1) t on each node's sandwich range
        shift = 1.1 * p * amp ** (p - 1.0)
    else:
        shift = np.full(h, cfg.lipschitz_shift)
    # centre-out order (decreasing d, the reversed index): every free set
    # {d > 1/shell} is a leading block, so one factorization of the
    # level-independent folded system serves every level
    order = np.arange(h)[::-1]
    lu, piv = _factor_nested(A_f[::-1, ::-1].copy(), shift[::-1])

    levels: list[BlowupLevel] = []
    u_curr = W.copy()
    prev_free = np.zeros(h, dtype=bool)
    monotone_levels = True

    for shell in cfg.exhaustion_levels:
        free_full = grid.free_mask(shell)
        free = free_full[:h]
        m = int(np.count_nonzero(free))
        if m == 0:
            continue
        idx = order[:m]
        w = np.where(free, 0.0, W)
        collar_load = (A_f @ w)[idx]
        ff = f[idx]

        def rhs_of(u, ff=ff, load=collar_load):
            return ff - load - _signed_power(u, p)

        def residual_of(u, ff=ff, w=w, idx=idx):
            full = w.copy()
            full[idx] = u
            return (A_f @ full)[idx] + _signed_power(u, p) - ff

        guard = None
        if cfg.lipschitz_shift is None:

            def guard(u_next, cap=amp[idx], shell=shell):
                if np.any(np.abs(u_next) > cap):
                    raise ConvergenceError(
                        f"exhaustion shell {shell}: an iterate left the sandwich "
                        "range max(|W|, |U|) on which the nodal shift is certified"
                    )

        if m == h:
            # full-depth shell (admissible source checked above): climb from 0
            u0 = np.zeros(m)
        else:
            u0 = np.maximum(u_curr[idx], W[idx])
            if params.source.sign_nonneg and np.all(w >= 0.0):
                # for f >= 0 and nonnegative imposed data the zero function is
                # itself a sub-solution of the level problem, so the climb may
                # start from max(previous level, W, 0); this avoids the deep
                # negative excursion of the torsion-globalized W
                u0 = np.maximum(u0, 0.0)
        uf, trace = _monotone_iterate(
            _leading_solver(lu, piv, m), shift[idx], rhs_of, residual_of, u0, cfg, guard
        )

        u_next = W.copy()
        u_next[idx] = uf
        shared = prev_free & free
        # the monotone-in-levels property belongs to the imposed-W shells; a
        # final full-depth shell swaps the imposed collar for solved values and
        # sits outside that comparison
        if np.any(shared) and m < h:
            defect = np.min(
                (u_next[shared] - u_curr[shared]) / (1.0 + np.abs(u_curr[shared]))
            )
            if defect < -100 * MONOTONE_SLACK:
                monotone_levels = False
        u_curr, prev_free = u_next, free
        levels.append(
            BlowupLevel(
                shell=shell,
                free=free_full,
                solution=GridFunction(grid, grid.mirror(u_next)),
                trace=trace,
            )
        )

    sandwich_ok = bool(
        np.all(u_curr >= W - 1e-9 * (1.0 + np.abs(W)))
        and np.all(u_curr <= U + 1e-9 * (1.0 + np.abs(U)))
    )
    return BlowupResult(
        params=params,
        final=levels[-1].solution,
        levels=levels,
        pair_collar=pair,
        pair_global=(sup_g, sub_g),
        monotone_in_levels=monotone_levels,
        sandwich_ok=sandwich_ok,
        notes=f"regime={regime.zone.value}",
    )


@dataclass
class ComparisonReport:
    ordered: bool
    violations: np.ndarray
    worst_gap: float
    super_residual_min: float
    sub_residual_max: float

    def to_dict(self) -> dict:
        return {
            "ordered": bool(self.ordered),
            "n_violations": int(self.violations.size),
            "worst_gap": float(self.worst_gap),
            "super_residual_min": float(self.super_residual_min),
            "sub_residual_max": float(self.sub_residual_max),
        }


def check_comparison(
    op: OperatorMatrix,
    u: GridFunction,
    v: GridFunction,
    params: ProblemParams,
    tol: float = 1e-9,
) -> ComparisonReport:
    """Discrete comparison audit: v (sub) should not exceed u (super).

    Also records the discrete residual extremes of both functions so callers
    can see whether the super/sub hypotheses actually held.
    """
    f_vals = params.source.value(op.grid.nodes)

    def residual(w: GridFunction) -> np.ndarray:
        return op.apply(w).values + _signed_power(w.values, params.p) - f_vals

    gap = u.values - v.values
    bad = np.where(gap < -tol * (1.0 + np.abs(u.values)))[0]
    return ComparisonReport(
        ordered=bad.size == 0,
        violations=op.grid.nodes[bad],
        worst_gap=float(gap.min()),
        super_residual_min=float(residual(u).min()),
        sub_residual_max=float(residual(v).max()),
    )
