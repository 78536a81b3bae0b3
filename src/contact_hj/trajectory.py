"""Backward minimizing curves and exponential discount indices.

A curve is traced by greedy one-step descent of the dynamic programming
operator on a converged field; the per-step defect is recorded rather than
assumed zero, and a curve that settles costs only its transient (see
backtrace). Discount indices are difference quotients of the Lagrangian in
its u slot between the field level and a reference level, one lattice sup
per distinct (speed, level) pair for p-coupled models. One left-Riemann
convention for their cumulative integrals weights both the representation
formulas and the discounted measures.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, atomic_write_rows
from .hamiltonian import LagrangianEvaluator
from .solver import SolverError, SweepKernel

__all__ = ["Curve", "IndexSeries", "backtrace", "compute_indices",
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


def backtrace(kernel: SweepKernel, field: GridField, lam: float, c: float, z,
              horizon: float, defect_tol: float = None) -> Curve:
    """Trace the greedy backward minimizer of the DPP from z.

    The evaluator, controls and time step are the kernel's.

    At each point the control minimizing Δt*(L(x,a,λ*v(x)) + c) + v(x - Δt*a)
    is chosen (first hit in lexicographic control order on ties). Steps whose
    one-step value disagrees with the field by more than defect_tol are
    counted and surface as a warning on the curve, which is still returned.

    L keeps legendre()'s arithmetic, W + f(x) - phi(x)*λ*v(x): the sup term
    W is the kernel's u = 0 row (kernel.cost) for separable couplings, and
    the lattice sup at level λ*v(x) for p-coupled ones; f, phi and W all
    come from evaluator.model. v(x) is the interpolated value of the foot
    chosen at the step before. A step whose chosen foot and value equal its
    own x and v(x) bit for bit ends the loop: the remaining steps would
    repeat it, so they are filled with its control, its foot and its defect
    count.
    """
    grid, evaluator, dt = field.grid, kernel.evaluator, kernel.dt
    model = evaluator.model
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if len(z) != grid.dim:
        raise SolverError(f"start point has dimension {len(z)}, "
                          f"grid has {grid.dim}")
    if not grid.domain.contains(z[None, :], slack=1e-9)[0]:
        raise SolverError(f"start point {z.tolist()} outside the mask")
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    if defect_tol is None:
        defect_tol = 10.0 * 1e-8 + max(grid.dx) ** 2
    ctrl = kernel.controls.controls
    step = dt * ctrl
    row = kernel.cost if model.coupling.separable else None
    pts = np.empty((n_steps + 1, grid.dim))
    vel = np.empty((n_steps, grid.dim))
    pts[0] = z
    defect_max = 0.0
    n_bad = 0
    x1 = z[None, :]
    v_here = float(field.interpolate(x1)[0])
    for k in range(n_steps):
        level = lam * v_here
        sup = (row if row is not None
               else evaluator._radial_sup(kernel.speeds, level))
        lvals = sup + model.f(x1) - model.phi(x1) * level
        feet = x1 - step
        ok = grid.domain.contains(feet, slack=1e-9)
        if not np.any(ok):
            raise SolverError(f"no admissible control at {x1[0].tolist()}")
        vals = np.full(len(ctrl), np.inf)
        vals[ok] = field.interpolate_unchecked(feet[ok])
        cand = dt * (lvals + c) + vals
        j = int(np.argmin(cand))
        defect = abs(v_here - float(cand[j]))
        if defect > defect_max:
            defect_max = defect
        if defect > defect_tol:
            n_bad += 1
        vel[k] = ctrl[j]
        pts[k + 1] = feet[j]
        if (feet[j].tobytes() == x1.tobytes()
                and vals[j].tobytes() == np.float64(v_here).tobytes()):
            # the state repeats, so every later step repeats this one
            vel[k + 1:] = ctrl[j]
            pts[k + 2:] = feet[j]
            if defect > defect_tol:
                n_bad += n_steps - k - 1
            break
        x1 = feet[j:j + 1]
        v_here = float(vals[j])
    warning = ""
    if n_bad:
        warning = (f"{n_bad}/{n_steps} steps exceeded the DPP defect "
                   f"tolerance {defect_tol:.3g} (worst {defect_max:.3g})")
    times = -dt * np.arange(n_steps + 1)
    return Curve(times=times, points=pts, velocities=vel, dt=dt,
                 defect_max=defect_max, warning=warning)


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
    a_levels = lam * np.asarray(field.interpolate(xk), dtype=float)
    values = np.asarray(evaluator.discount_index(
        xk, curve.velocities, a_levels, np.full(n, -lam * c0)), dtype=float)
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
    lvals = np.asarray(evaluator.legendre(
        curve.points[:n], curve.velocities, -lam * c0), dtype=float)
    w = indices.weights(lam)[:n]
    total = float(np.sum(w * (lvals + c) * curve.dt))
    if boundary_field is not None:
        tail_w = math.exp(lam * float(indices.cumulative[-1]))
        tail_v = float(boundary_field.interpolate(curve.points[-1:])[0])
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
