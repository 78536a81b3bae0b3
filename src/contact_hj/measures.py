"""Discounted occupation measures and the functionals that classify them.

Measures are finite weighted atoms in phase space built from traced
curves: the sample at time t_k carries weight proportional to the
exponential discount e^{λ β(t_k)} Δt, and each run of consecutive samples
with equal position and velocity is one atom carrying the run's summed
weight, so a settled tail costs one atom. Weak* statements are proxied by a
finite battery of C¹ test functions whose gradients are written out in
closed form; that keeps every assertion falsifiable at the cost of testing
only finitely many directions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridField, atomic_write_rows
from .hamiltonian import LagrangianEvaluator
from .trajectory import Curve, IndexSeries

__all__ = ["WeightedSampleMeasure", "discounted_measure",
           "closedness_defect", "mather_defect", "selection_functional",
           "weak_limit_diagnostics", "write_measure_csv", "default_battery"]


@dataclass(frozen=True)
class WeightedSampleMeasure:
    """Probability measure on phase space supported on finitely many atoms."""

    points: np.ndarray      # (N, dim)
    velocities: np.ndarray  # (N, dim)
    weights: np.ndarray     # (N,), nonnegative, sums to 1

    def __post_init__(self):
        w = self.weights
        if np.any(w < 0):
            raise ValueError("negative weight")
        if abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(np.sum(w))!r}, not 1")

    @property
    def support_radius(self) -> float:
        return float(max(np.max(np.abs(self.points)),
                         np.max(np.abs(self.velocities))))

    def pair(self, fn) -> float:
        """Integrate a callable fn(points, velocities) -> per-sample values."""
        vals = np.asarray(fn(self.points, self.velocities), dtype=float)
        return float(np.sum(self.weights * vals))


# (phi, phi') of the per-axis test functions x, x², x³, sin x and cos x
_AXIS_FORMS = (
    (lambda t: t, np.ones_like),
    (lambda t: t ** 2.0, lambda t: 2.0 * t),
    (lambda t: t ** 3.0, lambda t: 3.0 * t ** 2.0),
    (np.sin, np.cos),
    (np.cos, lambda t: -np.sin(t)),
)


def _on_axis(f, df, axis: int) -> tuple:
    """(phi, grad_phi) of phi(x) = f(x[axis]) on (n, dim) points."""
    def grad(pts):
        g = np.zeros(pts.shape)
        g[:, axis] = df(pts[:, axis])
        return g
    return (lambda pts: f(pts[:, axis])), grad


def default_battery(dim: int) -> tuple:
    """(phi, grad_phi) pairs of C¹ test functions on (n, dim) points:
    x, x², x³, sin x and cos x per axis, then x*y in 2D."""
    battery = [_on_axis(f, df, axis)
               for axis in range(dim) for f, df in _AXIS_FORMS]
    if dim == 2:
        battery.append((lambda pts: pts[:, 0] * pts[:, 1],
                        lambda pts: pts[:, ::-1]))
    return tuple(battery)


def discounted_measure(curve: Curve, indices: IndexSeries,
                       lam: float) -> WeightedSampleMeasure:
    """Discounted occupation measure of a traced curve, as distinct atoms.

    Sample k sits at (x_k, a_k) with weight proportional to
    e^{λ*cumulative(t_k)}*Δt; the terminal point is included with the last
    segment's velocity so the weights cover every time node of the curve.
    Each run of consecutive samples with equal (x, a) is one atom, in time
    order, at the run's first sample with the run's summed weight.
    """
    n = curve.segments
    if n < 1:
        raise ValueError("curve has no segments")
    w = indices.weights(lam) * curve.dt
    total = float(np.sum(w))
    if not (total > 0) or not math.isfinite(total):
        raise ValueError("degenerate discount weights")
    pts = curve.points
    vel = np.vstack([curve.velocities, curve.velocities[-1][None, :]])
    moved = np.any((pts[1:] != pts[:-1]) | (vel[1:] != vel[:-1]), axis=1)
    first = np.flatnonzero(np.concatenate(([True], moved)))
    w = np.add.reduceat(w, first) / total
    # guard the normalization invariant against accumulated rounding
    w = w / float(np.sum(w))
    return WeightedSampleMeasure(points=pts[first], velocities=vel[first],
                                 weights=w)


def closedness_defect(mu: WeightedSampleMeasure, battery) -> float:
    """max over the battery of |<mu, v . grad(phi)(x)>|; zero for closed mu."""
    worst = 0.0
    for _, grad in battery:
        g = grad(mu.points)
        val = abs(float(np.sum(mu.weights * np.sum(g * mu.velocities,
                                                   axis=1))))
        if val > worst:
            worst = val
    return worst


def mather_defect(mu: WeightedSampleMeasure, evaluator: LagrangianEvaluator,
                  c: float) -> float:
    """<mu, L(x, v, 0)> + c; tends to 0 for measures from minimizers."""
    lvals = evaluator.legendre(mu.points, mu.velocities, 0.0)
    return float(np.sum(mu.weights * lvals)) + c


def selection_functional(mu: WeightedSampleMeasure, w_field: GridField,
                         evaluator: LagrangianEvaluator) -> float:
    """<mu, w(x) * ∂_u L(x, v, 0)>: the discriminating functional for ℰ.

    Raises DomainError (from interpolation) when the measure's support
    escapes the field's mask.
    """
    wvals = w_field.interpolate(mu.points)
    du = evaluator.partial_u_l(mu.points, mu.velocities,
                               np.zeros(len(mu.weights)))
    return float(np.sum(mu.weights * wvals * du))


def weak_limit_diagnostics(measures: dict, battery,
                           evaluator: LagrangianEvaluator) -> list:
    """Pairwise weak*-proxy discrepancies across a λ-family of measures.

    One (lam_hi, lam_lo, discrepancy) row per consecutive pair of the
    decreasing λs. The proxy metric pairs measure differences against the
    battery plus L(.,.,0). No limit measure is constructed: a decreasing
    discrepancy tail toward the smallest λ is the evidence.
    """
    if len(measures) < 2:
        raise ValueError("need at least two measures")
    lams = sorted(measures, reverse=True)

    def pairings(mu):
        out = [mu.pair(lambda p, v, phi=phi: phi(p)) for phi, _ in battery]
        out.append(mu.pair(lambda p, v: evaluator.legendre(p, v, 0.0)))
        return np.asarray(out)

    tables = {l: pairings(measures[l]) for l in lams}
    return [(a, b, float(np.max(np.abs(tables[a] - tables[b]))))
            for a, b in zip(lams, lams[1:])]


def write_measure_csv(path, mu: WeightedSampleMeasure) -> None:
    """One row per atom: position, velocity, weight."""
    dim = mu.points.shape[1]
    cols = ["x", "y"][:dim] + ["v", "vy"][:dim] + ["w"]
    atomic_write_rows(path, ["# " + ",".join(cols)], np.column_stack(
        [mu.points, mu.velocities, mu.weights]))
