"""fraclap: critical constants, boundary barriers and blow-up solutions for
semilinear equations driven by the restricted fractional Laplacian on (0, 1)."""

__version__ = "0.1.0"

from .exponents import ProblemParams, RegimeReport, RegimeZone, classify_regime, find_tau0, special_window
from .fields import ExteriorData, SourceField
from .grid import Grid1D, GridFunction
from .operator import OperatorMatrix, assemble, eval_on_power, exterior_potential
from .quadrature import KernelConstants, eval_C, eval_C_derivatives, eval_C_tilde
from .rates import RateFit, check_band, fit_exponent, verify_prop32
from .solvers import IterationConfig, solve_blowup, solve_linear, solve_semilinear

__all__ = [
    "ProblemParams", "RegimeReport", "RegimeZone", "classify_regime", "find_tau0",
    "special_window", "ExteriorData", "SourceField", "Grid1D", "GridFunction",
    "OperatorMatrix", "assemble", "eval_on_power", "exterior_potential",
    "KernelConstants", "eval_C", "eval_C_derivatives",
    "eval_C_tilde", "RateFit", "check_band", "fit_exponent", "verify_prop32",
    "IterationConfig", "solve_blowup", "solve_linear", "solve_semilinear",
    "__version__",
]
