import math

import numpy as np
import pytest

from contact_hj.grid import (Domain, DomainError, GridField, UniformGrid,
                             atomic_write_rows)

from conftest import read_field_csv


def line_grid(n=41, lo=-2.0, hi=2.0):
    return UniformGrid(Domain.full_box([(lo, hi)]), n)


def test_constant_field_interpolates_to_constant():
    grid = line_grid()
    fld = GridField(grid, np.full(grid.shape, 3.25))
    pts = np.linspace(-2, 2, 17)
    np.testing.assert_array_equal(fld.interpolate(pts), np.full(17, 3.25))


def test_linear_field_exact_at_cell_center():
    grid = line_grid(n=5, lo=0.0, hi=4.0)  # nodes 0..4
    fld = GridField(grid, 1.5 * grid.axes[0])
    assert fld.interpolate(2.5) == pytest.approx(1.5 * 2.5)


def test_three_point_example():
    grid = UniformGrid(Domain.full_box([(0.0, 2.0)]), 3)
    fld = GridField(grid, np.array([0.0, 1.0, 4.0]))
    assert fld.interpolate(1.5) == pytest.approx(2.5)


def test_interpolation_at_nodes_is_exact():
    grid = line_grid(n=31, lo=-1.3, hi=2.9)
    rng = np.random.RandomState(0)
    vals = rng.uniform(-5, 5, size=grid.shape)
    fld = GridField(grid, vals)
    out = fld.interpolate(grid.axes[0])
    np.testing.assert_array_equal(out, vals)


def test_interpolation_monotone_between_stencil_values():
    grid = line_grid(n=21)
    rng = np.random.RandomState(4)
    vals = rng.uniform(-1, 1, size=grid.shape)
    fld = GridField(grid, vals)
    q = rng.uniform(-2, 2, size=200)
    out = fld.interpolate(q)
    lo = (q - grid.axes[0][0]) / grid.dx[0]
    i0 = np.clip(np.floor(lo).astype(int), 0, grid.shape[0] - 2)
    v0, v1 = vals[i0], vals[i0 + 1]
    assert np.all(out >= np.minimum(v0, v1) - 1e-12)
    assert np.all(out <= np.maximum(v0, v1) + 1e-12)


def test_query_outside_domain_raises():
    grid = line_grid()
    fld = GridField(grid, np.zeros(grid.shape))
    # half-a-cell grace band, then a domain error
    fld.interpolate(2.0 + 0.4 * grid.dx[0])
    with pytest.raises(DomainError):
        fld.interpolate(2.0 + 0.6 * grid.dx[0])


def test_ball_mask_symmetry_and_margin():
    grid = UniformGrid(Domain.ball([(-2.0, 2.0)] * 2, radius=1.5), (41, 41))
    mask = grid.mask
    np.testing.assert_array_equal(mask, mask[::-1, :])
    np.testing.assert_array_equal(mask, mask[:, ::-1])
    with pytest.raises(DomainError):
        UniformGrid(Domain.ball([(-2.0, 2.0)] * 2, radius=1.95), (41, 41))


@pytest.mark.parametrize("radius", [-3.0, 0.0, np.inf, np.nan])
def test_ball_radius_must_be_finite_and_positive(radius):
    # contains squares the radius, so -3 would hold x = 2
    with pytest.raises(DomainError, match="ball radius"):
        Domain.ball(((-4.0, 4.0),), radius)


def test_ball_interpolation_uses_replacement_inside_stencil():
    grid = UniformGrid(Domain.ball([(-2.0, 2.0)], radius=1.0), 41)
    vals = np.where(grid.mask, 7.0, -999.0)  # junk outside the mask
    fld = GridField(grid, vals)
    # query near the mask edge: the out-of-mask corner must be replaced
    assert fld.interpolate(0.99) == pytest.approx(7.0)
    assert fld.interpolate(1.0) == pytest.approx(7.0)


def _replacement_map_reference(mask):
    """Per axis line, the nearest in-mask node by np.apply_along_axis (lower
    index on ties); each out-of-mask node moves along the axis with the
    closest one (first axis on ties), or stays if no line has one."""
    def nearest(line):
        hits = np.flatnonzero(line)
        if not len(hits):
            return np.full(len(line), -1)
        return np.array([hits[np.argmin(np.abs(hits - i))]
                         for i in range(len(line))])

    near = [np.apply_along_axis(nearest, k, mask) for k in range(mask.ndim)]
    rmap = np.arange(mask.size).reshape(mask.shape)
    for node in zip(*np.nonzero(~mask)):
        dist = [abs(n[node] - node[k]) if n[node] >= 0 else np.inf
                for k, n in enumerate(near)]
        if np.isfinite(min(dist)):
            k = int(np.argmin(dist))
            moved = node[:k] + (near[k][node],) + node[k + 1:]
            rmap[node] = np.ravel_multi_index(moved, mask.shape)
    return rmap.ravel()


@pytest.mark.parametrize("shape", [(9,), (40,), (7, 11), (11, 7)])
def test_replacement_map_matches_a_per_line_reference(shape):
    rng = np.random.default_rng(5)
    grid = UniformGrid(Domain.full_box([(0.0, 1.0)] * len(shape)), shape)
    for density in (0.1, 0.3, 0.7):
        for _ in range(20):
            mask = rng.random(shape) < density
            mask[(0,) * len(shape)] = True
            if len(shape) == 2:  # a row and a column with no in-mask node
                mask[2, :] = mask[:, 3] = False
            grid.mask, grid._rmap = mask, None
            np.testing.assert_array_equal(grid.replacement_map,
                                          _replacement_map_reference(mask))


def test_2d_interpolation_bilinear():
    grid = UniformGrid(Domain.full_box([(0.0, 1.0)] * 2), (11, 11))
    gx, gy = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    fld = GridField(grid, gx * gy)
    # bilinear reproduces x*y exactly
    assert fld.interpolate((0.37, 0.81)) == pytest.approx(0.37 * 0.81, abs=1e-14)


def test_csv_roundtrip_bit_exact(tmp_path):
    grid = UniformGrid(Domain.ball([(-3.0, 3.0)], radius=2.0), 61)
    rng = np.random.RandomState(9)
    vals = rng.uniform(-10, 10, size=grid.shape)
    fld = GridField(grid, vals, meta={"kind": "state_constraint",
                                      "lambda": 0.1, "c": 0.4637})
    path = tmp_path / "field.csv"
    fld.to_csv(path)
    back = read_field_csv(path)
    np.testing.assert_array_equal(back.values, vals)
    np.testing.assert_array_equal(back.grid.mask, grid.mask)
    assert back.meta["kind"] == "state_constraint"
    assert back.meta["lambda"] == 0.1
    assert back.meta["c"] == 0.4637
    assert back.grid.domain.radius == 2.0


def test_csv_roundtrip_2d(tmp_path):
    grid = UniformGrid(Domain.full_box([(-1.0, 1.0)] * 2), (9, 9))
    rng = np.random.RandomState(3)
    fld = GridField(grid, rng.standard_normal(grid.shape),
                    meta={"kind": "ergodic", "lambda": 0.0, "c": 0.0})
    path = tmp_path / "f2.csv"
    fld.to_csv(path)
    back = read_field_csv(path)
    np.testing.assert_array_equal(back.values, fld.values)
    assert math.isinf(back.grid.domain.radius)


def test_row_writer_bytes_match_per_value_formatting(tmp_path):
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    rows = np.array([[-0.0, tiny, 1e300],
                     [-1e300, -tiny, 2.2250738585072014e-308],
                     [-1.2345678901234567e-5, 1e-310, -0.1],
                     [math.pi, -2.0, 0.0]])
    path = tmp_path / "rows.csv"
    atomic_write_rows(path, ["# a,b,c", "# second header"], rows)
    lines = ["# a,b,c", "# second header"]
    lines += [",".join(f"{c:.17g}" for c in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    back = np.loadtxt(path, delimiter=",", comments="#")
    assert back.tobytes() == rows.tobytes()


def test_nonfinite_values_rejected():
    grid = line_grid(n=11)
    vals = np.zeros(grid.shape)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        GridField(grid, vals)


def test_grid_validation():
    with pytest.raises(DomainError):
        UniformGrid(Domain.full_box([(0.0, 1.0)]), 2)  # too few nodes
    with pytest.raises(DomainError):
        UniformGrid(Domain.full_box([(0.0, 1.0)]), (5, 5))  # rank mismatch
