"""Grids, grid functions, and data-field descriptors."""

import csv
import io

import numpy as np
import pytest

from fraclap.errors import DomainError, GridMismatchError
from fraclap.fields import ExteriorData, SourceField
from fraclap.grid import Grid1D, GridFunction


def test_graded_grid_basics():
    g = Grid1D.graded(401, 3.0)
    assert np.all(np.diff(g.nodes) > 0)
    assert g.nodes[0] > 0 and g.nodes[-1] < 1
    assert np.allclose(g.nodes, 1 - g.nodes[::-1])
    assert g.d == pytest.approx(np.minimum(g.nodes, 1 - g.nodes))
    assert g.min_spacing > 0
    # grading clusters nodes near the boundary
    assert np.count_nonzero(g.d < 0.01) > np.count_nonzero((g.d > 0.24) & (g.d < 0.25))


def test_graded_grid_snapping():
    g = Grid1D.graded(501, 3.0, include=[1 / 8, 1 / 32, 0.2])
    for q in (1 / 8, 1 / 32, 0.2):
        assert np.min(np.abs(g.nodes - q)) < 1e-15
        assert np.min(np.abs(g.nodes - (1 - q))) < 1e-15


def test_graded_refuses_points_snapping_onto_one_node():
    # the shells 8..16384 crowd the deepest nodes of a coarse grid: two of
    # them would share one node and the earlier one would silently be lost
    shells = [2**k for k in range(3, 15)]
    first_pair = {21: (256, 512), 41: (2048, 4096), 61: (8192, 16384)}
    for n, (s1, s2) in first_pair.items():
        with pytest.raises(DomainError, match=f"{1 / s1!r} and {1 / s2!r}"):
            Grid1D.graded(n, 3.0, include=[1 / s for s in shells])
    g = Grid1D.graded(81, 3.0, include=[1 / s for s in shells])
    assert all(1 / s in g.nodes for s in shells)
    # mirror images are one point, though 1 - 0.8 is not 0.2 in binary
    g = Grid1D.graded(21, 3.0, include=[0.2, 0.8, 0.2])
    assert 0.2 in g.nodes and np.count_nonzero(np.abs(g.d - 0.2) < 1e-15) == 2


def test_free_mask():
    g = Grid1D.graded(301, 3.0, include=[1 / 8])
    free = g.free_mask(8)
    assert np.all(g.d[free] > 1 / 8)
    # the snapped shell node itself is data, not unknown
    i = int(np.argmin(np.abs(g.nodes - 1 / 8)))
    assert not free[i]
    with pytest.raises(DomainError):
        g.free_mask(1)


def test_distances_exactly_mirrored():
    shells = (8, 32, 128, 2048)
    g = Grid1D.graded(2001, 3.0, include=[1 / s for s in shells])
    h = g.n_half
    assert np.array_equal(g.d, g.d[::-1])
    assert np.array_equal(g.d[:h], g.nodes[:h])
    # the stored right end is a rounded mirror, so its 1 - x (exact) is not
    # the distance of the mirror point it stands for
    assert g.d[-1] == g.nodes[0] != 1.0 - g.nodes[-1]
    for s in shells:
        free = g.free_mask(s)
        assert np.array_equal(free, free[::-1])
    idx = np.arange(g.n_interior)
    assert np.array_equal(g.mirror(idx[:h]), np.minimum(idx, idx[::-1]))


def test_grid_validation():
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([0.1, 0.1, 0.9]))
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([0.0, 0.5, 0.9]))
    with pytest.raises(DomainError):
        Grid1D(nodes=np.array([0.1, 0.2, 0.9]))  # not symmetric
    # the right half must be the rounded mirror of the left half: a node a
    # few digits off near x = 1 is not (the matrix would be of another grid)
    for off in (5e-6, 1e-14):
        with pytest.raises(DomainError):
            Grid1D(nodes=np.array([0.1, 0.5, 0.9 + off]))
    Grid1D(nodes=np.array([0.1, 0.5, 0.9]))  # 1 - 0.9 != 0.1 in binary
    with pytest.raises(DomainError, match="grading_exponent must be >= 1"):
        Grid1D.graded(101, 0.5)  # would thin the nodes near the boundary


def test_graded_refuses_a_grading_whose_mirrors_round_away():
    # at n = 51 a grading of 12 or more puts the deepest node below 1e-17,
    # where 1 - d rounds to 1.0; the refusal names n and the grading
    assert Grid1D.graded(51, 10.0).nodes[-1] < 1.0
    for grading in (12.0, 15.0, 20.0):
        with pytest.raises(DomainError, match=f"grading_exponent={grading} at n=51"):
            Grid1D.graded(51, grading)


def test_grid_function_roundtrip(tmp_path):
    g = Grid1D.graded(101, 2.0)
    u = GridFunction(g, np.sin(np.pi * g.nodes))
    path = tmp_path / "profile.csv"
    u.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,d,value"
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "d", "value"]
    x, d, vals = np.array(rows[1:], dtype=float).T
    assert np.array_equal(x, g.nodes) and np.array_equal(d, g.d)
    assert np.array_equal(vals, u.values)  # shortest reprs round-trip exactly


def _csv_reference(g, values) -> bytes:
    """The bytes of csv.writer, each value formatted on its own."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "d", "value"])
    for x, d, v in zip(g.nodes, g.d, values):
        writer.writerow([repr(float(x)), repr(float(d)), repr(float(v))])
    return buf.getvalue().encode()


def test_to_csv_bytes_match_per_row_writer(tmp_path):
    g = Grid1D.graded(41, 3.0, include=[1 / 8])
    u = GridFunction(g, np.exp(-g.nodes) * np.array([1.0, -1e-300, 3e17] * 13 + [0.5, 2.0]))
    path = tmp_path / "fast.csv"
    u.to_csv(path)
    assert path.read_bytes() == _csv_reference(g, u.values)
    assert path.read_bytes().count(b"\r\n") == g.n_interior + 1


@pytest.mark.parametrize(
    "g", [Grid1D.graded(41, 3.0), Grid1D(nodes=np.linspace(0.0, 1.0, 42)[1:-1])],
    ids=["odd", "even"],
)
@pytest.mark.parametrize(
    "right",
    [None, (4, -0.0), (0, 7.0), (19, 7.0)],
    ids=["mirrored", "signed-zero", "last-differs", "middle-differs"],
)
def test_to_csv_mirrored_profile_bytes(tmp_path, g, right):
    """A mirror-symmetric profile, whose left-half reprs are reused for the
    mirror rows, and profiles one right-half value away from it (-0.0 for
    the mirror of 0.0, or another value at the node nearest 1 or at the
    right-half node nearest 1/2), all write the bytes of each value
    formatted on its own."""
    left = np.exp(-g.nodes[: g.n_half]) * np.resize([1.0, -1e-300, 3e17], g.n_half)
    left[4] = 0.0
    values = g.mirror(left)
    if right is not None:
        i, value = right
        values[g.n_interior - 1 - i] = value
    u = GridFunction(g, values)
    u.to_csv(tmp_path / "profile.csv")
    assert (tmp_path / "profile.csv").read_bytes() == _csv_reference(g, values)


def test_grid_function_guards():
    g = Grid1D.graded(101, 2.0)
    with pytest.raises(DomainError):
        GridFunction(g, np.full(g.n_interior, np.inf))
    with pytest.raises(GridMismatchError):
        GridFunction(g, np.zeros(g.n_interior - 1))


def test_source_field():
    f = SourceField.power_collar(-1.2, kappa_f=2.0)
    x = np.array([0.1, 0.5, 0.9])
    assert f.value(x) == pytest.approx(2.0 * np.minimum(x, 1 - x) ** -1.2)
    assert SourceField.zero().value(x) == pytest.approx(np.zeros(3))
    f.validate_for(0.5)
    with pytest.raises(DomainError):
        SourceField.power_collar(-2.5).validate_for(0.5)
    with pytest.raises(DomainError):
        SourceField(kind="nope")


def test_source_mirror_symmetry_reads_the_table():
    assert SourceField.zero().mirror_symmetric
    assert SourceField.power_collar(-1.2).mirror_symmetric
    sym = SourceField(kind="tabulated", table_x=(0.99, 0.01, 0.5), table_f=(1.0, 1.0, -1.0))
    assert sym.mirror_symmetric
    assert not SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.5, 2.0)).mirror_symmetric
    assert not SourceField(kind="tabulated", table_x=(0.2, 0.7), table_f=(1.0, 1.0)).mirror_symmetric


def test_source_is_zero_whenever_f_vanishes():
    # the zero kind, a zero amplitude and all-zero samples are all f = 0
    assert SourceField.zero().is_zero
    assert SourceField.power_collar(-1.2, kappa_f=0.0).is_zero
    assert not SourceField.power_collar(-1.2, kappa_f=-0.5).is_zero
    assert SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.0, 0.0)).is_zero
    assert not SourceField(kind="tabulated", table_x=(0.2, 0.8), table_f=(0.0, 1.0)).is_zero


def test_exterior_field():
    g = ExteriorData.power_collar(beta=-0.5, kappa_g=1.0, eta=0.25)
    z = np.array([-0.01, -0.5, 1.01, 2.0, 0.5])
    vals = g.value(z)
    assert vals[0] == pytest.approx(0.01**-0.5)
    assert vals[1] == pytest.approx(0.25**-0.5)  # frozen beyond the collar
    assert vals[2] == pytest.approx(0.01**-0.5)
    assert vals[4] == 0.0  # interior
    with pytest.raises(DomainError):
        ExteriorData.power_collar(beta=-1.5)
    with pytest.raises(DomainError):
        ExteriorData(kind="tabulated")  # exterior data is a zero or power-collar g
    # amplitude and collar width must lie in (0, inf), NaN included
    for name, value in (("kappa_g", np.nan), ("kappa_g", np.inf), ("kappa_g", 0.0),
                        ("eta", np.nan), ("eta", np.inf), ("eta", -1.0)):
        with pytest.raises(DomainError, match=f"{name}={value}"):
            ExteriorData.power_collar(beta=-0.5, **{name: value})

