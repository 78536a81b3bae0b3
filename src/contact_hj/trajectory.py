"""Backward minimizing curves and exponential discount indices.

A curve is traced by greedy one-step descent of the dynamic programming
operator on a converged field; the per-step defect is recorded rather than
assumed zero, and a curve that settles costs only its transient. The
curves of one kernel are traced together, one step of all of them at a
time (see backtrace). Discount indices are difference quotients of
the Lagrangian in its u slot between the field level and a reference
level, for p-coupled models one lattice sup table over the distinct
levels x distinct speeds. One left-Riemann convention for their
cumulative integrals weights both the representation formulas and the
discounted measures.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, atomic_write_rows
from .hamiltonian import LagrangianEvaluator
from .solver import SolverError, SweepKernel

__all__ = ["Curve", "IndexSeries", "Traces", "backtrace", "compute_indices",
           "exponential_action", "write_curve_csv"]


@dataclass(frozen=True)
class Curve:
    """Backward minimizer: times decrease from 0, x_{k+1} = x_k - dt*a_k."""

    times: np.ndarray      # (N+1,), t_0 = 0, step -dt
    points: np.ndarray     # (N+1, dim)
    velocities: np.ndarray  # (N, dim), a_k drives [t_{k+1}, t_k]
    dt: float
    defect_max: float = 0.0
    warning: str = ""

    @property
    def horizon(self) -> float:
        return -float(self.times[-1])

    @property
    def segments(self) -> int:
        return len(self.velocities)


@dataclass(frozen=True)
class IndexSeries:
    """Per-segment discount index values and their cumulative integrals.

    cumulative[k] integrates the index from t_k up to 0 (left-Riemann, one
    value per segment), so cumulative[0] = 0 and the sequence decreases.
    """

    values: np.ndarray      # (N,)
    cumulative: np.ndarray  # (N+1,)

    def weights(self, lam: float) -> np.ndarray:
        """Exponential weights e^{lam * cumulative(t_k)} per time node."""
        return np.exp(lam * self.cumulative)


class Traces(tuple):
    """A backtrace batch's entries, in cell order: each cell's Curve, or the
    SolverError that ended it."""

    @property
    def segments(self) -> int:
        """Steps of all the batch's curves."""
        return sum(e.segments for e in self if isinstance(e, Curve))


def backtrace(kernel: SweepKernel, field, lam, c: float, z, horizon,
              defect_tol: float = None):
    """Trace the greedy backward minimizer of the DPP from z on field.

    One cell when field is a GridField: returns its Curve and raises the
    SolverError (bad start, no admissible control) that ended it. A batch
    when field is a list of fields and lam, z and horizon are lists of the
    same length, one entry per cell: all cells are traced in one loop over
    the step index, and a Traces holds each cell's Curve or SolverError, so
    one cell's error leaves the others running. A lattice sup's ModelError
    ends the batch; on a solved field it cannot occur, since the levels lie
    in the range the solve's sup table covered on the same lattice.

    Every field lives on the kernel's grid; the evaluator, controls and time
    step are the kernel's. At each point the control minimizing
    Δt*(L(x,a,λ*v(x)) + c) + v(x - Δt*a) is chosen (first hit in
    lexicographic control order on ties). Steps whose one-step value
    disagrees with the field by more than defect_tol are counted and surface
    as a warning on the curve, which is still returned.

    L keeps legendre()'s arithmetic, W + f(x) - phi(x)*λ*v(x): the sup term
    W is the kernel's u = 0 row (kernel.cost) for separable couplings, and
    the lattice sup at level λ*v(x) for p-coupled ones. v(x) is the
    interpolated value of the foot chosen at the step before. A step whose
    chosen foot and value equal its own x and v(x) bit for bit ends its
    cell: the remaining steps would repeat it, so they are filled with its
    control, its foot and its defect count. Each step does its numpy work
    once for the live points of all cells, elementwise, so a cell's curve
    does not depend on the other cells of its batch.
    """
    if not isinstance(field, GridField):
        cells = list(zip(field, lam, z, horizon, strict=True))
        return _lockstep(kernel, cells, c, defect_tol)
    (curve,) = _lockstep(kernel, [(field, lam, z, horizon)], c, defect_tol)
    if isinstance(curve, Exception):
        raise curve
    return curve


def _lockstep(kernel, cells, c, defect_tol) -> Traces:
    """backtrace's loop over the (field, lam, z, horizon) cells."""
    grid, evaluator, dt = kernel.grid, kernel.evaluator, kernel.dt
    model, dim = evaluator.model, grid.dim
    if defect_tol is None:
        defect_tol = 10.0 * 1e-8 + max(grid.dx) ** 2
    ctrl = kernel.controls.controls
    step = dt * ctrl
    row = kernel.cost if model.coupling.separable else None
    out = [None] * len(cells)
    ids, starts = [], []  # the cells with a good start, and their starts
    for i, (field, _, z, _) in enumerate(cells):
        if field.grid is not grid:
            raise ValueError("traced fields must live on the kernel's grid")
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if len(z) != dim:
            out[i] = SolverError(f"start point has dimension {len(z)}, "
                                 f"grid has {dim}")
        elif not grid.domain.contains(z, slack=1e-9):
            out[i] = SolverError(f"start point {z.tolist()} outside the mask")
        else:
            ids.append(i)
            starts.append(z)
    if not ids:
        return Traces(out)
    lams = np.array([cells[i][1] for i in ids], dtype=float)
    n_steps = np.array([int(math.ceil(cells[i][3] / dt - 1e-12))
                        for i in ids])
    # the cells' node values after mask replacement, one field after another
    table = np.concatenate([cells[i][0].values.ravel()[grid.replacement_map]
                            for i in ids])
    base = grid.size * np.arange(len(ids))
    n_max = int(n_steps.max())
    pts = np.empty((len(ids), n_max + 1, dim))
    vel = np.empty((len(ids), n_max, dim))
    pts[:, 0] = starts
    defect_max = np.zeros(len(ids))
    n_bad = np.zeros(len(ids), dtype=int)
    dead = np.zeros(len(ids), dtype=bool)

    live = np.flatnonzero(n_steps > 0)  # positions in ids
    x = pts[live, 0]
    v = grid.multilinear(table, x, base[live])
    for k in range(n_max):
        if not live.size:
            break
        r = np.arange(len(live))
        level = lams[live] * v
        sup = row if row is not None else evaluator._table_sup(
            kernel.speeds, level)
        lvals = sup + model.f(x)[:, None] - (model.phi(x) * level)[:, None]
        feet = x[:, None, :] - step
        ok = grid.domain.contains(feet, slack=1e-9)
        for q in np.flatnonzero(~ok.any(axis=1)):
            dead[live[q]] = True
            out[ids[live[q]]] = SolverError(
                f"no admissible control at {x[q].tolist()}")
        # blocked feet read the field at x, which lies in the mask, so one
        # gather serves all feet; their values then count as inf
        vals = grid.multilinear(table, np.where(ok[..., None], feet,
                                                x[:, None, :]),
                                base[live, None])
        vals[~ok] = np.inf
        cand = dt * (lvals + c) + vals
        j = cand.argmin(axis=1)
        foot, value = feet[r, j], vals[r, j]
        defect = np.abs(v - cand[r, j])
        defect_max[live] = np.fmax(defect_max[live], defect)
        bad = defect > defect_tol
        n_bad[live] += bad
        vel[live, k] = ctrl[j]
        pts[live, k + 1] = foot
        # the state repeats, so every later step of the cell repeats this one
        repeat = ((foot.view(np.int64) == x.view(np.int64)).all(axis=1)
                  & (value.view(np.int64) == v.view(np.int64)))
        for q in np.flatnonzero(repeat):
            p, n = live[q], n_steps[live[q]]
            vel[p, k + 1:n] = ctrl[j[q]]
            pts[p, k + 2:n + 1] = foot[q]
            if bad[q]:
                n_bad[p] += n - k - 1
        keep = ~repeat & (n_steps[live] > k + 1) & ~dead[live]
        if not keep.all():
            live, foot, value = live[keep], foot[keep], value[keep]
        x, v = foot, value

    for p, i in enumerate(ids):
        if dead[p]:
            continue
        n = int(n_steps[p])
        warning = ""
        if n_bad[p]:
            warning = (f"{n_bad[p]}/{n} steps exceeded the DPP defect "
                       f"tolerance {defect_tol:.3g} "
                       f"(worst {defect_max[p]:.3g})")
        out[i] = Curve(times=-dt * np.arange(n + 1), points=pts[p, :n + 1],
                       velocities=vel[p, :n], dt=dt,
                       defect_max=float(defect_max[p]), warning=warning)
    return Traces(out)


def compute_indices(curve: Curve, evaluator: LagrangianEvaluator,
                    field: GridField, lam: float,
                    c0: float = 0.0) -> IndexSeries:
    """Discount index series along a curve.

    The index at segment k is the difference quotient of L in the u slot at
    (x_k, a_k) between the field's level λ*field(x_k) and the reference
    level -λ*c0.
    """
    n = curve.segments
    xk = curve.points[:n]
    a_levels = lam * field.interpolate(xk)
    values = evaluator.discount_index(xk, curve.velocities, a_levels,
                                      np.full(n, -lam * c0))
    cumulative = np.concatenate([[0.0], np.cumsum(curve.dt * values)])
    return IndexSeries(values=values, cumulative=cumulative)


def exponential_action(curve: Curve, indices: IndexSeries,
                       evaluator: LagrangianEvaluator, lam: float, c: float,
                       c0: float = 0.0,
                       boundary_field: GridField = None) -> float:
    """Discrete exponentially weighted action along the curve.

    Sum over segments of e^{λ*cumulative(t_k)} * (L(x_k, a_k, -λ*c0) + c) * Δt;
    when a boundary field is supplied the tail term
    e^{λ*cumulative(-T)} * field(γ(-T)) is added, which completes the
    right-hand side of the representation formulas.
    """
    n = curve.segments
    lvals = evaluator.legendre(curve.points[:n], curve.velocities, -lam * c0)
    w = indices.weights(lam)[:n]
    total = float(np.sum(w * (lvals + c) * curve.dt))
    if boundary_field is not None:
        tail_w = math.exp(lam * float(indices.cumulative[-1]))
        tail_v = float(boundary_field.interpolate(curve.points[-1]))
        total += tail_w * tail_v
    return total


def write_curve_csv(path, curve: Curve, indices: IndexSeries) -> None:
    """Persist a curve with its index series: t, x, a, index, cumulative.

    One row per time node; the terminal node repeats the last segment's
    velocity and index value.
    """
    dim = curve.points.shape[1]
    cols = ["t"] + ["x", "y"][:dim] + ["a", "ay"][:dim] \
        + ["index_value", "cumulative"]
    n = curve.segments
    seg = np.minimum(np.arange(n + 1), n - 1)
    atomic_write_rows(path, ["# " + ",".join(cols)], np.column_stack(
        [curve.times, curve.points, curve.velocities[seg],
         indices.values[seg], indices.cumulative]))
