"""Descriptors for the interior source f and the exterior data g.

Both are boundary-growth fields: the physically relevant shapes are a power of
the boundary distance d(x) on a collar, so the descriptors store (exponent,
amplitude) pairs and evaluate on demand.  A tabulated source carries explicit
samples for data that comes from files.  Exterior data enters the equation
only through its interior potential (`fraclap.operator.exterior_potential`),
a source term, so the solvers themselves always see zero exterior data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ExteriorData", "SourceField", "is_mirrored", "MIRROR_TOL"]

# how far a point may sit from the mirror 1 - x of its partner: a few units in
# the last place of 1, the rounding of 1 - x
MIRROR_TOL = 4 * np.finfo(float).eps


def is_mirrored(xs) -> bool:
    """True when the increasing points xs are symmetric about 1/2 up to the
    rounding of 1 - x: each point within MIRROR_TOL of its partner's
    mirror."""
    xs = np.asarray(xs, dtype=float)
    return bool(np.all(np.abs(xs - (1.0 - xs[::-1])) <= MIRROR_TOL))


@dataclass(frozen=True)
class ExteriorData:
    """Exterior values g on the complement of (0, 1).

    kind "zero":         g identically 0.
    kind "power_collar": g(z) = kappa_g * d(z)^beta for d(z) <= eta, frozen at
                         kappa_g * eta^beta further out (bounded continuation),
                         where d(z) is the distance from z to {0, 1}.
    """

    kind: str = "zero"
    beta: float = -0.5
    kappa_g: float = 1.0
    eta: float = 0.5

    def __post_init__(self):
        if self.kind not in ("zero", "power_collar"):
            raise DomainError(f"unknown exterior kind {self.kind!r}")
        if self.kind == "power_collar":
            if not -1.0 < self.beta < 0.0:
                raise DomainError("power-collar exterior needs beta in (-1, 0)")
            if not 0.0 < self.kappa_g < np.inf:
                raise DomainError(f"power-collar exterior: kappa_g={self.kappa_g} outside (0, inf)")
            if not 0.0 < self.eta < np.inf:
                raise DomainError(f"power-collar exterior: eta={self.eta} outside (0, inf)")

    @classmethod
    def zero(cls) -> "ExteriorData":
        return cls(kind="zero")

    @classmethod
    def power_collar(cls, beta: float, kappa_g: float = 1.0, eta: float = 0.5) -> "ExteriorData":
        return cls(kind="power_collar", beta=beta, kappa_g=kappa_g, eta=eta)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def value(self, z):
        """g at exterior points z (vectorized); zero inside [0, 1]."""
        z = np.asarray(z, dtype=float)
        if self.is_zero:
            return np.zeros_like(z)
        outside = (z <= 0.0) | (z >= 1.0)
        dist = np.maximum(np.where(z <= 0.0, -z, z - 1.0), 1e-300)
        return np.where(outside, self.kappa_g * np.minimum(dist, self.eta) ** self.beta, 0.0)


@dataclass(frozen=True)
class SourceField:
    """Interior source f on (0, 1).

    kind "zero":         f identically 0.
    kind "power_collar": f(x) = kappa_f * d(x)^gamma with d(x) = min(x, 1-x).
    kind "tabulated":    piecewise-linear samples on (0, 1).
    """

    kind: str = "zero"
    gamma: float = -0.5
    kappa_f: float = 1.0
    table_x: tuple = ()
    table_f: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zero", "power_collar", "tabulated"):
            raise DomainError(f"unknown source kind {self.kind!r}")
        if self.kind == "power_collar":
            if not self.gamma < 0:
                raise DomainError("power-collar source needs gamma < 0")
            if not -np.inf < self.kappa_f < np.inf:
                raise DomainError(f"power-collar source: kappa_f={self.kappa_f} is not finite")

    @classmethod
    def zero(cls) -> "SourceField":
        return cls(kind="zero")

    @classmethod
    def power_collar(cls, gamma: float, kappa_f: float = 1.0) -> "SourceField":
        return cls(kind="power_collar", gamma=gamma, kappa_f=kappa_f)

    @property
    def is_zero(self) -> bool:
        """f identically 0: the zero kind, a zero amplitude or all-zero samples."""
        if self.kind == "zero":
            return True
        if self.kind == "power_collar":
            return self.kappa_f == 0
        return not any(self.table_f)

    @property
    def sign_nonneg(self) -> bool:
        """f >= 0 everywhere: read off the amplitude or the samples."""
        if self.kind == "power_collar":
            return self.kappa_f >= 0
        return all(v >= 0 for v in self.table_f)

    @property
    def mirror_symmetric(self) -> bool:
        """f(1 - x) = f(x): true of the zero and power-collar kinds; a table
        must list mirrored abscissae (`is_mirrored`, as a grid's nodes)
        carrying equal values."""
        if self.kind != "tabulated":
            return True
        xs = np.asarray(self.table_x, dtype=float)
        fs = np.asarray(self.table_f, dtype=float)
        order = np.argsort(xs)
        xs, fs = xs[order], fs[order]
        return is_mirrored(xs) and bool(np.array_equal(fs, fs[::-1]))

    def value(self, x):
        """f at interior points x (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "power_collar":
            d = np.minimum(x, 1.0 - x)
            return self.kappa_f * d**self.gamma
        xs = np.asarray(self.table_x, dtype=float)
        fs = np.asarray(self.table_f, dtype=float)
        order = np.argsort(xs)
        return np.interp(x, xs[order], fs[order])

    def validate_for(self, alpha: float) -> None:
        """Check the exponent against the admissible growth range for this alpha."""
        if self.kind == "power_collar" and not -1.0 - 2.0 * alpha < self.gamma < 0.0:
            raise DomainError(
                f"source exponent gamma={self.gamma} outside (-1-2*alpha, 0) for alpha={alpha}"
            )
