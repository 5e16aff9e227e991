"""Linear Dirichlet solves, monotone semilinear iteration, and the
domain-exhaustion construction of boundary blow-up solutions.

The semilinear equation Lu + |u|^(p-1) u = f is solved by the classical
shifted fixed-point scheme: with a shift D making r(t) = D t - |t|^(p-1) t
increasing on the sandwich range, each sweep solves

    (L + D) u_next = f + D u_k - |u_k|^(p-1) u_k

starting from the sub-solution.  Because L + D is an M-matrix, the iterates
increase monotonically and stay below the super-solution.  Blow-up solutions
come from solving on the exhaustion domains {d > 1/shell} with the global
sub-solution as exterior data; the implementation substitutes u = W + v so
that the singular data W enters through its exact semi-analytic operator
values while the discrete unknown v vanishes on the exhaustion ring.
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

    lipschitz_shift None means automatic: 1.1 * p * (sup of the sandwich
    amplitude)^(p-1), recomputed per exhaustion level.  shift_mode "adaptive"
    (with lipschitz_shift None) instead grows a nodewise shift from the
    starting iterate and refactorizes whenever an iterate leaves the range it
    certifies.
    """

    lipschitz_shift: float | None = None
    shift_mode: str = "scalar"
    max_iters: int = 500
    sup_tol: float = 1e-9
    exhaustion_levels: tuple = (8, 16, 32, 64, 128)
    monotone_slack: float = MONOTONE_SLACK

    def __post_init__(self):
        if self.lipschitz_shift is not None and self.lipschitz_shift <= 0:
            raise DomainError("lipschitz_shift must be positive when given")
        if self.shift_mode not in ("scalar", "adaptive"):
            raise DomainError(f"unknown shift_mode {self.shift_mode!r}")
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
        lu = lu_factor(A)
    except Exception as exc:
        raise ConvergenceError(
            f"linear solve failed ({exc}); the assembled system should be an M-matrix, "
            "so this points at assembly corruption"
        ) from exc
    return GridFunction(op.grid, lu_solve(lu, rhs_vals))


def _auto_shift(p: float, lo: np.ndarray, hi: np.ndarray) -> float:
    amp = np.maximum(np.abs(lo), np.abs(hi))
    return float((1.1 * p * np.maximum(amp, 1e-30) ** (p - 1.0)).max())


def _monotone_iterate(
    A: np.ndarray,
    rhs_of,
    u0: np.ndarray,
    cfg: IterationConfig,
    residual_of,
    p: float,
    shift_vec: np.ndarray | None = None,
    amp0: np.ndarray | None = None,
    range_of=None,
) -> tuple[np.ndarray, IterationTrace]:
    """Core shifted fixed-point loop; rhs_of(u) excludes the shift term.

    With a fixed shift_vec the shift never changes and any decreasing step is a
    hard error (the shift was declared adequate for the sandwich and was not).
    In adaptive mode (shift_vec None) the shift starts from the amplitude
    estimate amp0 and the system is refactorized whenever an iterate leaves the
    certified range; every accepted iterate is itself a discrete sub-solution,
    so restarting from it keeps the monotone construction intact.
    """
    trace = IterationTrace()
    adaptive = shift_vec is None
    rng = range_of if range_of is not None else np.abs
    infl = 1.5
    if adaptive:
        amp = np.maximum(amp0 if amp0 is not None else rng(u0), rng(u0)) * infl
        amp = np.maximum(amp, 1e-6)
        shift = 1.1 * p * amp ** (p - 1.0)
    else:
        shift = np.broadcast_to(np.asarray(shift_vec, dtype=float), u0.shape).copy()

    n = u0.size
    idx = np.arange(n)

    def factor(s):
        M = A.copy()
        M[idx, idx] += s
        return lu_factor(M)

    lu = factor(shift)
    u = u0.copy()
    k = 0
    while k < cfg.max_iters:
        u_next = lu_solve(lu, rhs_of(u) + shift * u)
        k += 1
        if adaptive and float(np.max(rng(u_next) - amp)) > 0.0:
            # iterate left the range the shift certifies: enlarge (only where
            # needed, to keep the shift close to the true local Lipschitz
            # bound) and resume from the current certified sub-solution
            amp = np.maximum(amp, rng(u_next) * infl)
            shift = 1.1 * p * amp ** (p - 1.0)
            lu = factor(shift)
            trace.shift_rebuilds += 1
            continue
        defect = float(np.min(u_next - u))
        if defect < -cfg.monotone_slack:
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
    if np.any(sub.values > super_.values + cfg.monotone_slack):
        raise DomainError("sub-solution exceeds super-solution somewhere")
    f_vals = (source or params.source).value(op.grid.nodes)
    A = op.shifted_dense(0.0)
    load = op.exterior_load

    def rhs_of(u):
        return f_vals - load - _signed_power(u, params.p)

    def residual_of(u):
        return A @ u + load + _signed_power(u, params.p) - f_vals

    if cfg.shift_mode == "adaptive" and cfg.lipschitz_shift is None:
        u, trace = _monotone_iterate(
            A, rhs_of, sub.values, cfg, residual_of, params.p, amp0=np.abs(sub.values)
        )
    else:
        shift = cfg.lipschitz_shift
        if shift is None:
            shift = _auto_shift(params.p, sub.values, super_.values)
        shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), sub.values.shape)
        u, trace = _monotone_iterate(
            A, rhs_of, sub.values, cfg, residual_of, params.p, shift_vec=shift_vec
        )
    return GridFunction(op.grid, u, sub.exterior), trace


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

    Only zero exterior data is supported: the levels are assembled with the
    zero exterior, so nonzero `params.exterior` raises DomainError instead of
    being dropped.
    """
    if not params.exterior.is_zero:
        raise DomainError(
            f"solve_blowup supports zero exterior data only, got kind "
            f"{params.exterior.kind!r}"
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

    if op is None:
        op = assemble(grid, params.alpha)
    _, tor_term = torsion(grid, params.alpha, op=op)

    d = grid.d
    verify_mask = d > 2e-6
    verify_nodes = grid.nodes[verify_mask]
    sup_g, sub_g = globalize_pair(pair, tor_term, params, verify_nodes)

    nodes = grid.nodes
    if not np.any(grid.free_mask(max_shell)):
        raise DomainError("grid has no nodes inside the deepest exhaustion shell")

    W_all = np.asarray(sub_g.value(nodes), dtype=float)
    U_all = np.asarray(sup_g.value(nodes), dtype=float)
    f_all = params.source.value(nodes)

    A_full = op.shifted_dense(0.0)
    levels: list[BlowupLevel] = []
    u_curr = W_all.copy()
    prev_free = np.zeros_like(d, dtype=bool)
    monotone_levels = True

    for shell in cfg.exhaustion_levels:
        free = grid.free_mask(shell)
        if not np.any(free):
            continue
        idx = np.where(free)[0]
        fixed = np.where(~free)[0]
        A_ff = A_full[np.ix_(idx, idx)]
        collar_load = A_full[np.ix_(idx, fixed)] @ W_all[fixed] if fixed.size else 0.0
        Wf, Uf, ff = W_all[idx], U_all[idx], f_all[idx]

        def rhs_of(u, ff=ff, load=collar_load):
            return ff - load - _signed_power(u, params.p)

        def residual_of(u, A_ff=A_ff, ff=ff, load=collar_load):
            return A_ff @ u + load + _signed_power(u, params.p) - ff

        if fixed.size == 0:
            # full-depth shell (admissible source checked above): climb from 0
            u0 = np.zeros_like(Wf)
            amp0 = np.abs(Uf)
        else:
            u0 = np.maximum(u_curr[idx], Wf)
            if params.source.sign_nonneg and np.all(W_all[fixed] >= 0.0):
                # for f >= 0 and nonnegative imposed data the zero function is
                # itself a sub-solution of the level problem, so the climb may
                # start from max(previous level, W, 0); this avoids the deep
                # negative excursion of the torsion-globalized W
                u0 = np.maximum(u0, 0.0)
            amp0 = np.abs(u0)
        if cfg.shift_mode == "adaptive" and cfg.lipschitz_shift is None:
            uf, trace = _monotone_iterate(
                A_ff, rhs_of, u0, cfg, residual_of, params.p, amp0=amp0
            )
        else:
            shift = cfg.lipschitz_shift
            if shift is None:
                shift = _auto_shift(params.p, Wf, Uf)
            shift_vec = np.broadcast_to(np.asarray(shift, dtype=float), Wf.shape)
            uf, trace = _monotone_iterate(
                A_ff, rhs_of, u0, cfg, residual_of, params.p, shift_vec=shift_vec
            )

        u_next = W_all.copy()
        u_next[idx] = uf
        shared = prev_free & free
        # the monotone-in-levels property belongs to the imposed-W shells; a
        # final full-depth shell swaps the imposed collar for solved values and
        # sits outside that comparison
        if np.any(shared) and fixed.size > 0:
            defect = np.min(
                (u_next[shared] - u_curr[shared]) / (1.0 + np.abs(u_curr[shared]))
            )
            if defect < -100 * cfg.monotone_slack:
                monotone_levels = False
        u_curr, prev_free = u_next, free
        levels.append(
            BlowupLevel(shell=shell, free=free, solution=GridFunction(grid, u_next), trace=trace)
        )

    final = levels[-1].solution
    sandwich_ok = bool(
        np.all(final.values >= W_all - 1e-9 * (1.0 + np.abs(W_all)))
        and np.all(final.values <= U_all + 1e-9 * (1.0 + np.abs(U_all)))
    )
    return BlowupResult(
        params=params,
        final=final,
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
