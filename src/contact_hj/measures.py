"""Discounted occupation measures and the functionals that classify them.

Measures are finite weighted atoms in phase space built from traced
curves: the sample at time t_k carries weight proportional to the
exponential discount e^{λ β(t_k)} Δt, and each run of consecutive samples
with equal position and velocity is one atom carrying the run's summed
weight, so a settled tail costs one atom. Weak* statements are proxied by a
finite battery of C¹ test functions with exact expression-tree gradients;
that keeps every assertion falsifiable at the cost of testing only finitely
many directions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .expressions import Expr, coordinate_names, parse, point_env
from .grid import GridField, atomic_write_rows
from .hamiltonian import LagrangianEvaluator
from .trajectory import Curve, IndexSeries

__all__ = ["WeightedSampleMeasure", "TestFunction",
           "discounted_measure", "closedness_defect", "mather_defect",
           "selection_functional", "weak_limit_diagnostics",
           "WeakLimitReport", "write_measure_csv", "default_battery"]


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


@dataclass(frozen=True)
class TestFunction:
    """C¹ test function with exact gradient expressions per axis."""

    __test__ = False  # not a pytest case despite the mathematical name

    name: str
    expr: Expr
    gradient: tuple  # one Expr per axis

    @staticmethod
    def from_text(text: str, dim: int) -> "TestFunction":
        e = parse(text)
        grads = tuple(e.diff(var) for var in coordinate_names(dim))
        return TestFunction(name=text, expr=e, gradient=grads)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.asarray(self.expr(**point_env(pts)),
                                          dtype=float), (len(pts),))

    def grad(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        env = point_env(pts)
        cols = [np.broadcast_to(np.asarray(g(**env), dtype=float), (len(pts),))
                for g in self.gradient]
        return np.column_stack(cols)


def default_battery(dim: int) -> tuple:
    """Monomials x, x², x³ and sin/cos per axis; adds x*y in 2D."""
    texts = ["x", "x^2", "x^3", "sin(x)", "cos(x)"]
    if dim == 2:
        texts += ["y", "y^2", "y^3", "sin(y)", "cos(y)", "x*y"]
    return tuple(TestFunction.from_text(t, dim) for t in texts)


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
    for fn in battery:
        g = fn.grad(mu.points)
        val = abs(float(np.sum(mu.weights * np.sum(g * mu.velocities,
                                                   axis=1))))
        if val > worst:
            worst = val
    return worst


def mather_defect(mu: WeightedSampleMeasure, evaluator: LagrangianEvaluator,
                  c: float) -> float:
    """<mu, L(x, v, 0)> + c; tends to 0 for measures from minimizers."""
    lvals = np.asarray(evaluator.legendre(mu.points, mu.velocities, 0.0),
                       dtype=float)
    return float(np.sum(mu.weights * lvals)) + c


def selection_functional(mu: WeightedSampleMeasure, w_field: GridField,
                         evaluator: LagrangianEvaluator) -> float:
    """<mu, w(x) * ∂_u L(x, v, 0)>: the discriminating functional for ℰ.

    Raises DomainError (from interpolation) when the measure's support
    escapes the field's mask.
    """
    wvals = np.asarray(w_field.interpolate(mu.points), dtype=float)
    du = np.asarray(evaluator.partial_u_l(mu.points, mu.velocities,
                                          np.zeros(len(mu.weights))),
                    dtype=float)
    return float(np.sum(mu.weights * wvals * du))


@dataclass(frozen=True)
class WeakLimitReport:
    lambdas: tuple          # decreasing
    discrepancies: tuple    # len-1 consecutive pairwise gaps


def weak_limit_diagnostics(measures: dict, battery,
                           evaluator: LagrangianEvaluator) -> WeakLimitReport:
    """Pairwise weak*-proxy discrepancies across a λ-family of measures.

    The proxy metric pairs measure differences against the battery plus
    L(.,.,0). No limit measure is constructed: a decreasing discrepancy
    tail toward the smallest λ is the evidence.
    """
    if len(measures) < 2:
        raise ValueError("need at least two measures")
    lams = sorted(measures, reverse=True)

    def pairings(mu):
        out = [mu.pair(lambda p, v, fn=fn: fn(p)) for fn in battery]
        out.append(mu.pair(lambda p, v: np.asarray(
            evaluator.legendre(p, v, 0.0), dtype=float)))
        return np.asarray(out)

    tables = {l: pairings(measures[l]) for l in lams}
    gaps = tuple(float(np.max(np.abs(tables[a] - tables[b])))
                 for a, b in zip(lams, lams[1:]))
    return WeakLimitReport(lambdas=tuple(lams), discrepancies=gaps)


def write_measure_csv(path, mu: WeightedSampleMeasure) -> None:
    """One row per atom: position, velocity, weight."""
    dim = mu.points.shape[1]
    cols = ["x", "y"][:dim] + ["v", "vy"][:dim] + ["w"]
    atomic_write_rows(path, ["# " + ",".join(cols)], np.column_stack(
        [mu.points, mu.velocities, mu.weights]))
