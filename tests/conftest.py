import math
import os
import tracemalloc

# one BLAS thread for the dense policy solves: OpenBLAS reads it when numpy
# loads, and a loaded 2-core machine runs them many times slower with more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from contact_hj.expressions import parse
from contact_hj.grid import Domain, GridField, UniformGrid
from contact_hj.hamiltonian import (HamiltonianModel, LagrangianEvaluator,
                                    LinearCoupling, QuadraticKinetic)
from contact_hj.solver import (ControlSet, SolveParams, SweepKernel,
                               mane_potential, solve_ergodic,
                               solve_state_constraint)


def peak_bytes(fn) -> int:
    """Peak traced bytes allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_ql_model() -> HamiltonianModel:
    """Quadratic kinetic, Gaussian well potential, unit linear coupling."""
    return HamiltonianModel(
        dim=1,
        kinetic=QuadraticKinetic(),
        potential=parse("1 - exp(-x^2)"),
        coupling=LinearCoupling(parse("1")),
    )


@pytest.fixture(scope="session")
def ql_model():
    return make_ql_model()


@pytest.fixture(scope="session")
def ql_evaluator(ql_model):
    return LagrangianEvaluator(ql_model)


@pytest.fixture(scope="session")
def controls1d():
    return ControlSet.build(1)


@pytest.fixture(scope="session")
def grid201():
    return UniformGrid(Domain.full_box(((-10.0, 10.0),)), (201,))


@pytest.fixture(scope="session")
def grid401():
    return UniformGrid(Domain.full_box(((-10.0, 10.0),)), (401,))


@pytest.fixture(scope="session")
def kernel201(grid201, ql_evaluator, controls1d):
    return SweepKernel(grid201, ql_evaluator, controls1d)


@pytest.fixture(scope="session")
def kernel401(grid401, ql_evaluator, controls1d):
    return SweepKernel(grid401, ql_evaluator, controls1d)


@pytest.fixture(scope="session")
def params_fast():
    return SolveParams(tol=1e-7)


@pytest.fixture(scope="session")
def params_tight():
    return SolveParams(tol=1e-8)


@pytest.fixture(scope="session")
def theta_01(kernel201, params_fast):
    """State-constraint field at lam = 0.1 on the coarse grid."""
    out = solve_state_constraint(kernel201, 0.1, 0.0, params_fast)
    assert out.converged
    return out


@pytest.fixture(scope="session")
def theta_005(kernel201, params_fast, theta_01):
    out = solve_state_constraint(kernel201, 0.05, 0.0, params_fast,
                                 v0=theta_01.field.values)
    assert out.converged
    return out


@pytest.fixture(scope="session")
def ergodic201(kernel201, params_fast):
    out = solve_ergodic(kernel201, 0.0, params_fast)
    assert out.converged
    return out


@pytest.fixture(scope="session")
def mane401(kernel401, params_tight):
    return mane_potential(kernel401, 0.0, 0.0, params_tight)


@pytest.fixture(scope="session")
def ball_2d():
    # the potential falls toward (-2, 0) on the ball boundary: the curve
    # reaches the boundary there, and controls leaving the ball are blocked
    model = HamiltonianModel(dim=2, kinetic=QuadraticKinetic(),
                             potential=parse("2 + x"),
                             coupling=LinearCoupling(parse("1")))
    ev = LagrangianEvaluator(model)
    grid = UniformGrid(Domain.ball(((-3.0, 3.0),) * 2, 2.0), (25, 25))
    controls = ControlSet.build(2, da=1.0)
    kernel = SweepKernel(grid, ev, controls)
    out = solve_state_constraint(kernel, 0.4, 0.0, SolveParams(tol=1e-6))
    assert out.converged
    return out.field, kernel


def read_field_csv(path) -> GridField:
    """Read back a field written by GridField.to_csv."""
    with open(path) as handle:
        lines = [ln.strip() for ln in handle if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise ValueError(f"not a field CSV: {path}")
    kind, lam, c, radius = lines[1].lstrip("# ").split(",")[:4]
    rows = np.array([[float(tok) for tok in ln.split(",")]
                     for ln in lines[2:]])
    dim = rows.shape[1] - 1
    axes = [np.unique(rows[:, k]) for k in range(dim)]
    box = tuple((float(ax[0]), float(ax[-1])) for ax in axes)
    radius = math.inf if radius == "inf" else float(radius)
    domain = (Domain.full_box(box) if math.isinf(radius)
              else Domain.ball(box, radius))
    grid = UniformGrid(domain, tuple(len(ax) for ax in axes))
    values = rows[:, dim].reshape(grid.shape)
    return GridField(grid, values,
                     meta={"kind": kind, "lambda": float(lam), "c": float(c)})


_OR_X = np.linspace(0.0, 4.0, 40001)
_OR_F = 1.0 - np.exp(-_OR_X ** 2)
_OR_CUM = np.concatenate([[0.0], np.cumsum(
    0.5 * (np.sqrt(2 * _OR_F[1:]) + np.sqrt(2 * _OR_F[:-1]))
    * np.diff(_OR_X))])


def quadrature_mane(x):
    """Trapezoid oracle for the pinned semi-distance of the Gaussian well.

    S(x, 0) = |integral_0^x sqrt(2 f(s)) ds| with f = 1 - exp(-s^2).
    """
    return np.interp(np.abs(np.asarray(x, dtype=float)), _OR_X, _OR_CUM)


def window_residual(field, curve, indices, evaluator, lam, c, j_hi, j_lo):
    """Residual of the weighted window identity along a traced curve.

    Between segment indices j_hi < j_lo (time decreases with the index), the
    weighted field drop e^{lam*beta}v at the two ends must match the windowed
    exponential action taken at reference level zero.
    """
    pts = curve.points
    w = indices.weights(lam)
    v_hi = float(np.asarray(field.interpolate(pts[j_hi])).reshape(-1)[0])
    v_lo = float(np.asarray(field.interpolate(pts[j_lo])).reshape(-1)[0])
    xs = pts[j_hi:j_lo]
    vs = curve.velocities[j_hi:j_lo]
    lvals = np.asarray(evaluator.legendre(xs, vs, 0.0), dtype=float)
    action = float(np.sum(w[j_hi:j_lo] * (lvals + c)) * curve.dt)
    return abs(w[j_hi] * v_hi - w[j_lo] * v_lo - action)
