"""Graded interior grids on (0, 1) and sampled fields living on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DomainError, GridMismatchError
from .fields import MIRROR_TOL, is_mirrored

__all__ = ["Grid1D", "GridFunction"]


@dataclass(frozen=True)
class Grid1D:
    """Strictly interior nodes of (0, 1), symmetric about 1/2.

    The left-half nodes x <= 1/2 are exact; each right-half node stands for
    the exact mirror 1 - x of its partner, of which it is only the rounded
    value (so 1 - x there is off by up to 2^-54 absolute: 4.3e-8 relative
    at the deepest node d = 5e-10 of a 2001-node graded grid).  The matrix
    rows, `d` and every blow-up level are built from the left half and
    mirrored, so data that depend on the boundary distance belong at `d`
    (or on the left half, mirrored), not at min(x, 1 - x) of the right-half
    nodes.  A grid whose right half is not the rounded mirror of its left
    half, to within a few units in the last place, is rejected.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 3:
            raise DomainError("grid needs at least 3 interior nodes")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > 0 and nodes[-1] < 1):
            raise DomainError("grid nodes must be strictly increasing inside (0, 1)")
        if not is_mirrored(nodes):
            raise DomainError("grid must be symmetric about 1/2")

    @classmethod
    def graded(cls, n: int, grading_exponent: float = 3.0, include=()) -> "Grid1D":
        """Symmetric graded grid with roughly n >= 3 interior nodes.

        Node density scales like d^(grading_exponent - 1) near each endpoint,
        so grading_exponent = 1 is uniform and larger values cluster nodes at
        the boundary (needed to resolve d^tau profiles with tau near -1).

        Points listed in `include` (and their mirrors) are snapped onto the
        grid exactly, replacing the nearest generated node; exhaustion shells
        and probe locations are pinned this way so they never fall between
        nodes.  Two points that would snap onto the same node are refused
        (one of them would silently not be a node) unless they are mirror
        images: q and 1 - q count as one point, to within `MIRROR_TOL`, and
        the later one is kept.
        """
        if not n >= 3:
            raise DomainError(f"a graded grid needs n >= 3 interior nodes, got n={n}")
        if not 1.0 <= grading_exponent < np.inf:
            raise DomainError(f"grading_exponent must be >= 1 and finite, got {grading_exponent}")
        m = (int(n) + 1) // 2
        s = np.arange(1, m + 1) / m
        half = 0.5 * s**grading_exponent
        snapped = {}  # generated node index -> the point snapped onto it
        for point in include:
            point = float(point)
            q = min(point, 1.0 - point)
            if not 0.0 < q <= 0.5:
                raise DomainError(f"cannot snap point {q} into (0, 1/2]")
            if q == 0.5:
                continue
            j = int(np.argmin(np.abs(half - q)))
            if half[j] == 0.5:  # never move the midpoint
                j -= 1
            if j in snapped and abs(half[j] - q) > MIRROR_TOL:
                raise DomainError(
                    f"include points {snapped[j]!r} and {point!r} snap onto the same "
                    f"grid node at n={n}; a larger n keeps both"
                )
            snapped[j] = point
            half[j] = q
        # sorted and deduplicated; np.unique would import numpy.ma, a
        # measurable part of every run's start-up (CHANGES.md), to rule out
        # a masked array
        half = np.array(sorted(set(half.tolist())))
        if half[-1] != 0.5:
            half = np.append(half, 0.5)
        mirrors = 1.0 - half  # below d ~ 1e-16 these round to 1.0 or together
        if mirrors[0] == 1.0 or np.any(np.diff(mirrors) >= 0.0):
            raise DomainError(f"grading_exponent={grading_exponent} at n={n} puts a node too "
                              f"near 0 (d={half[0]:.3e}) for its mirror 1 - d to be distinct")
        nodes = np.concatenate([half, mirrors[:-1][::-1]])
        return cls(nodes=nodes)

    @property
    def n_interior(self) -> int:
        return self.nodes.size

    @property
    def n_half(self) -> int:
        """Number of left-half nodes x <= 1/2, the midpoint of odd n included."""
        return (self.nodes.size + 1) // 2

    def mirror(self, left) -> np.ndarray:
        """Full nodal array of the mirror-symmetric function with the given
        left-half values: v[n-1-i] = left[i] for i < n_half."""
        left = np.asarray(left)
        return np.concatenate([left, left[: self.nodes.size - self.n_half][::-1]])

    @property
    def d(self) -> np.ndarray:
        """Distance of every node to the boundary {0, 1}.

        The left-half nodes are their own distances; the right half carries
        the same values mirrored, the distances of the exact mirror points
        that the right-half nodes stand for (1 - x of a stored right-half
        node is exact, but the node itself is a rounded mirror)."""
        return self.mirror(self.nodes[: self.n_half])

    @property
    def min_spacing(self) -> float:
        return float(min(self.nodes[0], np.diff(self.nodes).min()))

    @cached_property
    def _csv_prefixes(self) -> list:
        """The `x,d,` start of every node's profile row, as shortest
        round-trip reprs: the same in every profile on the grid, so formatted
        once per grid object."""
        return [f"{x!r},{d!r}," for x, d in zip(self.nodes.tolist(), self.d.tolist())]

    def cell_edges(self) -> np.ndarray:
        """Node list extended by the boundary points 0 and 1."""
        return np.concatenate([[0.0], self.nodes, [1.0]])

    def free_mask(self, shell: int) -> np.ndarray:
        """Mask of nodes strictly inside the exhaustion domain {d > 1/shell}."""
        if shell < 2:
            raise DomainError("exhaustion shell must satisfy shell >= 2")
        return self.d > 1.0 / shell

    def __eq__(self, other):
        return (
            isinstance(other, Grid1D)
            and self.nodes.shape == other.nodes.shape
            and np.array_equal(self.nodes, other.nodes)
        )


@dataclass
class GridFunction:
    """Nodal values on a Grid1D; the exterior values are zero.

    Values must stay finite: blow-up lives in fitted exponents, never in
    stored infinities.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.nodes.shape:
            raise GridMismatchError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise DomainError("grid function values must be finite")
        self.values = v

    @classmethod
    def zeros(cls, grid: Grid1D) -> "GridFunction":
        return cls(grid, np.zeros(grid.n_interior))

    def to_csv(self, path) -> None:
        """Columns x, d, value as shortest round-trip reprs.  The bytes are
        those of csv.writer's default dialect (comma, CRLF); a finite float's
        repr never needs quoting, so the rows are joined directly.  The x and
        d columns come preformatted from the grid; only the values are
        formatted here, and those of a mirror-symmetric profile (each
        right-half value the same bits as its mirror) only on the left half,
        each repr reused for the mirror row."""
        v = self.values
        n, h = v.size, self.grid.n_half
        bits = v.view(np.int64)
        if np.array_equal(bits[h:], bits[: n - h][::-1]):
            left = [repr(x) for x in v[:h].tolist()]
            reprs = left + left[: n - h][::-1]
        else:
            reprs = [repr(x) for x in v.tolist()]
        text = "".join([f"{xd}{r}\r\n" for xd, r in zip(self.grid._csv_prefixes, reprs)])
        Path(path).write_text("x,d,value\r\n" + text, newline="")
