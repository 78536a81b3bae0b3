"""Masked uniform grids and multilinear interpolation.

Ball domains are realized as boolean masks over a Cartesian box grid; there
is no body-fitted meshing. Interpolation stencils that poke out of the mask
take the nearest in-mask value along a stencil axis, which keeps the scheme
monotone near curved boundaries. Fields persist to CSV with 17 significant
digits so a write/read cycle is bit-exact.
"""

import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

__all__ = ["Domain", "UniformGrid", "GridField", "DomainError",
           "atomic_write_text", "atomic_write_rows", "tensor_points"]


class DomainError(ValueError):
    """Domain geometry problem or query outside the mask."""


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename, never a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_rows(path, header, rows) -> None:
    """Write header lines, then one line per row of a float matrix with
    every value at .17g (a write/read cycle is bit-exact)."""
    rows = np.asarray(rows, dtype=float)
    # str.format calls float.__format__, as f"{c:.17g}" does, so a row has
    # the bytes of per-value f-strings
    fmt = ",".join(["{:.17g}"] * rows.shape[1]).format
    lines = list(header) + [fmt(*row) for row in rows.tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def tensor_points(axes) -> np.ndarray:
    """The product of 1D axes as points (n, dim), first axis slowest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))


@dataclass(frozen=True)
class Domain:
    """A box with an optional ball mask carved out of it."""

    box: tuple  # ((lo, hi), ...) per axis
    kind: str = "box"  # box | ball
    center: tuple = ()
    radius: float = math.inf

    @staticmethod
    def full_box(box) -> "Domain":
        return Domain(box=tuple((float(lo), float(hi)) for lo, hi in box))

    @staticmethod
    def ball(box, radius: float, center=None) -> "Domain":
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        radius = float(radius)
        if not (math.isfinite(radius) and radius > 0):
            raise DomainError(f"ball radius must be finite and > 0, "
                              f"got {radius!r}")
        if center is None:
            center = (0.0,) * len(box)
        return Domain(box=box, kind="ball", center=tuple(map(float, center)),
                      radius=radius)

    @property
    def dim(self) -> int:
        return len(self.box)

    def contains(self, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim == 1 else pts[None, :]
        inside = np.ones(pts.shape[0], dtype=bool)
        for k, (lo, hi) in enumerate(self.box):
            inside &= (pts[:, k] >= lo - slack) & (pts[:, k] <= hi + slack)
        if self.kind == "ball":
            d = pts - np.asarray(self.center)
            d2 = np.sum(np.square(d, out=d), axis=1)
            inside &= d2 <= (self.radius + slack) ** 2 + 1e-12
        return inside


def _axis_nearest_in_mask(mask: np.ndarray, axis: int) -> np.ndarray:
    """Per node, index along axis of the nearest True on its axis line (-1
    if the line has none); ties prefer the lower index."""
    n = mask.shape[axis]
    idx = np.arange(n).reshape([-1 if k == axis else 1
                                for k in range(mask.ndim)])
    # nearest True at or before, and at or after, each node
    fwd = np.maximum.accumulate(np.where(mask, idx, -1), axis=axis)
    bwd = np.flip(np.minimum.accumulate(
        np.flip(np.where(mask, idx, 2 * n), axis), axis=axis), axis)
    dist_f = np.where(fwd >= 0, idx - fwd, n + 1)
    dist_b = np.where(bwd < 2 * n, bwd - idx, n + 1)
    out = np.where(dist_f <= dist_b, fwd, bwd)
    out[(fwd < 0) & (bwd >= 2 * n)] = -1
    return out


class UniformGrid:
    """Uniform node lattice covering a domain's box, with a boolean mask."""

    def __init__(self, domain: Domain, shape):
        if isinstance(shape, int):
            shape = (shape,) * domain.dim
        shape = tuple(int(n) for n in shape)
        if len(shape) != domain.dim:
            raise DomainError("shape rank does not match domain dimension")
        if any(n < 3 for n in shape):
            raise DomainError("need at least 3 nodes per axis")
        self.domain = domain
        self.shape = shape
        self.axes = tuple(
            np.linspace(lo, hi, n) for (lo, hi), n in zip(domain.box, shape))
        self.dx = tuple(float(ax[1] - ax[0]) for ax in self.axes)
        if any(d <= 0 for d in self.dx):
            raise DomainError("degenerate axis")
        if domain.kind == "ball":
            for k, (lo, hi) in enumerate(domain.box):
                c = domain.center[k]
                if c - domain.radius < lo + self.dx[k] - 1e-12 or \
                        c + domain.radius > hi - self.dx[k] + 1e-12:
                    raise DomainError(
                        "ball must fit inside the box with one-cell margin")
        pts = self.points()
        self.mask = domain.contains(pts).reshape(shape)
        if not np.any(self.mask):
            raise DomainError("mask is empty")
        self._rmap = None

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def points(self) -> np.ndarray:
        """All node coordinates, row-major, shape (size, dim)."""
        return tensor_points(self.axes)

    def nearest_node(self, point) -> tuple:
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        idx = []
        for k in range(self.dim):
            lo = self.axes[k][0]
            i = int(round((pt[k] - lo) / self.dx[k]))
            idx.append(min(max(i, 0), self.shape[k] - 1))
        return tuple(idx)

    @property
    def replacement_map(self) -> np.ndarray:
        """Flat index map: node -> nearest in-mask node along a grid axis.

        Out-of-mask nodes take the closest of their axis-nearest in-mask
        nodes, preferring the first axis on ties. Nodes with no in-mask
        node on any of their axis lines map to themselves and keep their
        own, out-of-mask value. Sweep stencils on thin balls can reach such
        nodes; SweepKernel rejects those grids.
        """
        if self._rmap is None:
            idx = np.indices(self.shape)
            near = np.stack([_axis_nearest_in_mask(self.mask, k)
                             for k in range(self.dim)])
            dist = np.where(near >= 0, np.abs(near - idx), self.size)
            axes = np.arange(self.dim).reshape((-1,) + (1,) * self.dim)
            along = axes == np.argmin(dist, axis=0)  # ties: the first axis
            keep = self.mask | np.all(near < 0, axis=0)
            moved = np.where(along & ~keep, near, idx)
            self._rmap = np.ravel_multi_index(tuple(moved), self.shape).ravel()
        return self._rmap

    def multilinear(self, table: np.ndarray, pts: np.ndarray,
                    base=0) -> np.ndarray:
        """Multilinear interpolation of node values at (..., dim) points.

        table[base + i] is the value at node i after mask replacement, i.e.
        values.ravel()[replacement_map] of a field; fields stacked one after
        another share one table, and base, broadcast against the points,
        selects each point's field. Points are not checked: callers test
        them against the domain first.
        """
        cell, t = [], []
        for k in range(self.dim):
            p = (pts[..., k] - self.axes[k][0]) / self.dx[k]
            b = np.minimum(np.maximum(np.floor(p).astype(int), 0),
                           self.shape[k] - 2)
            w = p - b
            # snap to exact node hits so node queries reproduce node values
            w[np.abs(w) < 1e-9] = 0.0
            w[np.abs(w - 1.0) < 1e-9] = 1.0
            w = np.minimum(np.maximum(w, 0.0), 1.0)
            cell.append(b)
            t.append(w)
        if self.dim == 1:
            i0 = base + cell[0]
            return (1 - t[0]) * table[i0] + t[0] * table[i0 + 1]
        ny = self.shape[1]
        i0 = base + cell[0] * ny + cell[1]
        v00 = table[i0]
        v01 = table[i0 + 1]
        v10 = table[i0 + ny]
        v11 = table[i0 + ny + 1]
        tx, ty = t
        return ((1 - tx) * ((1 - ty) * v00 + ty * v01)
                + tx * ((1 - ty) * v10 + ty * v11))


class GridField:
    """Node values over a grid plus the solve metadata that produced them."""

    def __init__(self, grid: UniformGrid, values: np.ndarray, meta=None):
        values = np.asarray(values, dtype=float).reshape(grid.shape)
        if not np.all(np.isfinite(values[grid.mask])):
            raise ValueError("non-finite values on in-mask nodes")
        self.grid = grid
        self.values = values
        self.meta = dict(meta or {})

    def with_values(self, values, meta=None) -> "GridField":
        return GridField(self.grid, values, meta if meta is not None else self.meta)

    # -- interpolation -------------------------------------------------------

    def interpolate(self, points) -> np.ndarray:
        """Multilinear interpolation with mask replacement at stencil corners.

        Queries may sit up to half a cell outside the mask (backtraced feet
        graze boundaries by a ulp); anything farther raises DomainError.
        """
        grid = self.grid
        pts = np.asarray(points, dtype=float)
        squeeze = False
        if pts.ndim == 0 or (pts.ndim == 1 and grid.dim == 2):
            pts = pts.reshape(1, -1) if grid.dim == 2 else pts.reshape(1)
            squeeze = True
        if grid.dim == 1:
            pts = pts.reshape(-1, 1)
        slack = 0.5 * max(grid.dx)
        ok = grid.domain.contains(pts, slack=slack)
        if not np.all(ok):
            bad = pts[np.argmin(ok)]
            raise DomainError(f"query point {bad.tolist()} outside the domain")
        out = grid.multilinear(self.values.ravel()[grid.replacement_map], pts)
        return float(out[0]) if squeeze else out

    # -- persistence -----------------------------------------------------------

    def to_csv(self, path) -> None:
        grid = self.grid
        meta = self.meta
        radius = grid.domain.radius
        r_text = "inf" if math.isinf(radius) else f"{radius:.17g}"
        header = [
            "# kind,lambda,c,R,dx",
            "# {},{:.17g},{:.17g},{},{:.17g}".format(
                meta.get("kind", "field"), float(meta.get("lambda", 0.0)),
                float(meta.get("c", 0.0)), r_text, grid.dx[0]),
        ]
        atomic_write_rows(path, header, np.column_stack(
            [grid.points(), self.values.ravel()]))
