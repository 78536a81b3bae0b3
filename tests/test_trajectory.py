import math

import numpy as np
import pytest

from contact_hj.expressions import parse
from contact_hj.grid import Domain, GridField, UniformGrid
from contact_hj.hamiltonian import (ArctanCoupling, HamiltonianModel,
                                    LagrangianEvaluator, QuadraticKinetic)
from contact_hj.solver import (ControlSet, SolveParams, SolverError,
                               SweepKernel, solve_state_constraint)
from contact_hj.trajectory import (INDEX_KINDS, backtrace, compute_indices,
                                   exponential_action, write_curve_csv)

from conftest import window_residual


@pytest.fixture(scope="module")
def curve_z2(theta_005, kernel201, ql_evaluator, controls1d):
    return backtrace(theta_005.field, ql_evaluator, controls1d,
                     0.05, 0.0, 2.0, 40.0, kernel201.dt)


@pytest.fixture(scope="module")
def arctan_solve():
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-x^2)"),
                             coupling=ArctanCoupling(shift=math.pi))
    ev = LagrangianEvaluator(model)
    grid = UniformGrid(Domain.full_box(((-6.0, 6.0),)), (121,))
    kernel = SweepKernel(grid, ev, ControlSet.build(1))
    out = solve_state_constraint(kernel, 0.2, math.pi, SolveParams(tol=1e-6))
    assert out.converged
    return kernel, out.field


def reference_backtrace(field, evaluator, controls, lam, c, z,
                        horizon, dt, defect_tol=None):
    """Plain per-step loop: Legendre over every control at the tiled point,
    the public interpolate on the admitted feet and afresh at each point.

    Returns (points, velocities, defect_max, warning, blocked_steps), where
    blocked_steps counts the steps at which some control was inadmissible.
    """
    grid = field.grid
    z = np.atleast_1d(np.asarray(z, dtype=float))
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    if defect_tol is None:
        defect_tol = 10.0 * 1e-8 + max(grid.dx) ** 2
    ctrl = controls.controls
    pts = np.empty((n_steps + 1, grid.dim))
    vel = np.empty((n_steps, grid.dim))
    pts[0] = z
    defect_max = 0.0
    n_bad = 0
    blocked = 0
    x = z.copy()
    for k in range(n_steps):
        v_here = float(field.interpolate(x[None, :])[0])
        level = lam * v_here
        lvals = np.asarray(evaluator.legendre(
            np.tile(x, (len(ctrl), 1)), ctrl, level), dtype=float)
        feet = x[None, :] - dt * ctrl
        ok = grid.domain.contains(feet, slack=1e-9)
        blocked += int(not np.all(ok))
        vals = np.full(len(ctrl), np.inf)
        vals[ok] = field.interpolate(feet[ok])
        cand = dt * (lvals + c) + vals
        j = int(np.argmin(cand))
        defect = abs(v_here - float(cand[j]))
        defect_max = max(defect_max, defect)
        n_bad += defect > defect_tol
        vel[k] = ctrl[j]
        x = feet[j]
        pts[k + 1] = x
    warning = ""
    if n_bad:
        warning = (f"{n_bad}/{n_steps} steps exceeded the DPP defect "
                   f"tolerance {defect_tol:.3g} (worst {defect_max:.3g})")
    return pts, vel, defect_max, warning, blocked


def assert_matches_reference(field, evaluator, controls, lam, c, z,
                             horizon, dt, defect_tol=None) -> tuple:
    args = (field, evaluator, controls, lam, c, z, horizon, dt, defect_tol)
    curve = backtrace(*args)
    pts, vel, defect_max, warning, blocked = reference_backtrace(*args)
    assert np.array_equal(curve.points, pts)
    assert np.array_equal(curve.velocities, vel)
    assert curve.points.tobytes() == pts.tobytes()
    assert curve.velocities.tobytes() == vel.tobytes()
    assert curve.defect_max == defect_max
    assert curve.warning == warning
    return curve, blocked


@pytest.mark.parametrize("z", [0.0, 2.0])
def test_backtrace_matches_reference_quadratic_linear(
        z, theta_005, kernel201, ql_evaluator, controls1d):
    dt = kernel201.dt
    curve, _ = assert_matches_reference(theta_005.field, ql_evaluator,
                                        controls1d, 0.05, 0.0,
                                        z, 10.0, dt)
    assert curve.warning == ""


def settled(curve) -> bool:
    """Whether the curve ends on a repeated point, bit for bit."""
    return curve.points[-1].tobytes() == curve.points[-2].tobytes()


@pytest.mark.parametrize("z, steps, settles", [
    (0.0, 24000, True),     # horizon 200, stationary from the first step
    (2.0, 1200.37, True),   # a mid-curve tail and a partial last step
    (2.0, 120, False),      # too short to settle
])
def test_backtrace_fills_the_stationary_tail_exactly(
        z, steps, settles, theta_005, kernel201, ql_evaluator, controls1d):
    dt = kernel201.dt
    curve, _ = assert_matches_reference(theta_005.field, ql_evaluator,
                                        controls1d, 0.05, 0.0,
                                        z, steps * dt, dt)
    assert curve.segments == math.ceil(steps - 1e-9)
    assert settled(curve) == settles


def test_backtrace_tail_keeps_counting_defects(theta_005, kernel201,
                                               ql_evaluator, controls1d):
    # a unit shift leaves z = 0 stationary with defect dt*lam*v at every step
    shifted = theta_005.field.with_values(theta_005.field.values + 1.0)
    dt = kernel201.dt
    curve, _ = assert_matches_reference(shifted, ql_evaluator,
                                        controls1d, 0.05, 0.0, 0.0, 10.0, dt,
                                        defect_tol=1e-6)
    n = curve.segments
    assert curve.warning.startswith(f"{n}/{n} steps exceeded")


def test_backtrace_does_not_trace_the_settled_tail(
        theta_005, kernel201, ql_evaluator, controls1d, monkeypatch):
    calls = []
    unchecked = GridField.interpolate_unchecked

    def counted(self, pts):
        calls.append(len(pts))
        return unchecked(self, pts)

    monkeypatch.setattr(GridField, "interpolate_unchecked", counted)
    dt = kernel201.dt
    # the start value, then one step that repeats its own state
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      0.05, 0.0, 0.0, 1e4 * dt, dt)
    assert curve.segments >= 10000
    assert len(calls) <= 2
    calls.clear()
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      0.05, 0.0, 2.0, 1e4 * dt, dt)
    moves = np.flatnonzero(np.any(curve.points[1:] != curve.points[:-1],
                                  axis=1))
    last_move = int(moves[-1]) + 1   # steps up to and including the last move
    assert last_move < 1000
    assert len(calls) <= last_move + 2


def test_backtrace_matches_reference_arctan(arctan_solve, controls1d):
    kernel, field = arctan_solve
    ev, dt = kernel.evaluator, kernel.dt
    assert_matches_reference(field, ev, controls1d, 0.2, math.pi,
                             1.5, 3.0, dt)


def test_backtrace_fills_the_arctan_tail_exactly(arctan_solve, controls1d):
    kernel, field = arctan_solve
    ev, dt = kernel.evaluator, kernel.dt
    curve, _ = assert_matches_reference(field, ev, controls1d, 0.2,
                                        math.pi, 1.5, 20.0, dt)
    assert settled(curve)


def test_backtrace_matches_reference_on_a_2d_ball_boundary(ball_2d):
    field, ev, controls, dt = ball_2d
    curve, blocked = assert_matches_reference(field, ev, controls,
                                              0.4, 0.0, (0.5, 1.5), 4.0, dt)
    assert blocked >= 10
    np.testing.assert_allclose(curve.points[-1], [-2.0, 0.0], atol=1e-12)


def test_backtrace_fills_the_2d_boundary_tail_exactly(ball_2d):
    field, ev, controls, dt = ball_2d
    curve, _ = assert_matches_reference(field, ev, controls, 0.4, 0.0,
                                        (0.5, 1.5), 12.0, dt)
    np.testing.assert_allclose(curve.points[-1], [-2.0, 0.0], atol=1e-12)
    assert settled(curve)


def test_backtrace_stationary_at_the_well(theta_005, kernel201, ql_evaluator,
                                          controls1d):
    dt = kernel201.dt
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      0.05, 0.0, 0.0, 10.0, dt)
    assert np.max(np.abs(curve.points)) <= 1e-12
    assert np.max(np.abs(curve.velocities)) == 0.0
    assert curve.warning == ""


def test_backtrace_confines_and_decays(curve_z2):
    x = curve_z2.points[:, 0]
    assert abs(x[-1]) <= 0.2
    assert np.max(np.abs(x)) <= 2.0 + 1e-9
    assert np.all(np.diff(np.abs(x)) <= 1e-12)  # monotone slide to the well


def test_backtrace_step_bookkeeping(theta_005, kernel201, ql_evaluator,
                                    controls1d):
    dt = kernel201.dt
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      0.05, 0.0, 1.0, 10.0, dt)
    n = curve.segments
    assert n == math.ceil(10.0 / dt - 1e-12)
    assert curve.times[0] == 0.0
    assert curve.times[-1] == pytest.approx(-n * dt, abs=1e-12)
    assert curve.horizon >= 10.0 - 1e-12
    assert curve.points.shape == (n + 1, 1)
    assert curve.velocities.shape == (n, 1)
    # forward consistency of the stored velocities
    steps = curve.points[:-1] - curve.dt * curve.velocities
    np.testing.assert_allclose(steps, curve.points[1:], atol=1e-12)


def test_backtrace_rejects_bad_starts(theta_005, ql_evaluator, controls1d):
    with pytest.raises(SolverError, match="outside"):
        backtrace(theta_005.field, ql_evaluator, controls1d,
                  0.05, 0.0, 11.0, 1.0, 0.008)
    with pytest.raises(SolverError, match="dimension"):
        backtrace(theta_005.field, ql_evaluator, controls1d,
                  0.05, 0.0, (1.0, 1.0), 1.0, 0.008)


def test_backtrace_flags_inconsistent_fields(theta_005, kernel201,
                                             ql_evaluator, controls1d):
    grid = theta_005.field.grid
    xs = grid.axes[0]
    bad = theta_005.field.with_values(theta_005.field.values
                                      + 0.5 * np.sin(5.0 * xs))
    dt = kernel201.dt
    curve, _ = assert_matches_reference(bad, ql_evaluator,
                                        controls1d, 0.05, 0.0, 1.0, 2.0, dt,
                                        defect_tol=1e-4)
    assert "defect" in curve.warning
    assert curve.defect_max > 1e-4


def test_indices_linear_coupling_are_exact(curve_z2, ql_model, ql_evaluator,
                                           theta_005):
    for kind in INDEX_KINDS:
        ids = compute_indices(curve_z2, ql_evaluator,
                              theta_005.field, 0.05, kind, c0=3.0)
        np.testing.assert_allclose(ids.values, -1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ids.cumulative, curve_z2.times,
                                   rtol=0, atol=1e-9)
        w = ids.weights(0.05)
        assert w[0] == 1.0
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        assert np.all(np.diff(ids.cumulative) < 0.0)


def test_indices_cumulative_dominated_by_kappa_floor(curve_z2, ql_model,
                                                     ql_evaluator, theta_005):
    # with every segment index <= -1 the integral sits below the line s
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field,
                          0.05, "kappa")
    t10 = np.searchsorted(-ids.times, 10.0)
    assert ids.cumulative[t10] <= -10.0 + 1e-9


def test_indices_unknown_kind_raises(curve_z2, ql_model, ql_evaluator,
                                     theta_005):
    with pytest.raises(ValueError, match="index kind"):
        compute_indices(curve_z2, ql_evaluator, theta_005.field,
                        0.05, "alpha")


def test_indices_arctan_levels_matter(arctan_solve, controls1d):
    kernel, field = arctan_solve
    ev, dt = kernel.evaluator, kernel.dt
    curve = backtrace(field, ev, controls1d, 0.2, math.pi, 1.5,
                      10.0, dt)
    kap = compute_indices(curve, ev, field, 0.2, "kappa")
    bold = compute_indices(curve, ev, field, 0.2, "k_bold", c0=1.0)
    assert np.all(kap.values <= 1e-12)
    assert np.all(bold.values <= 1e-12)
    # the shifted reference level must actually move the quotients
    assert np.max(np.abs(kap.values - bold.values)) > 1e-6


def test_quotient_ordering_in_level_a(arctan_solve):
    # monotone in the upper level while both levels stay in the convex range
    ev = arctan_solve[0].evaluator
    rng = np.random.RandomState(2)
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0)
        v = rng.uniform(-4.0, 4.0)
        b = rng.choice([0.0, -0.1])
        w2 = rng.uniform(0.0, 3.0)
        w1 = w2 + rng.uniform(0.0, 3.0)
        i1 = ev.discount_index(x, v, w1, b)
        i2 = ev.discount_index(x, v, w2, b)
        assert i1 >= i2 - 1e-12


def test_exponential_action_represents_the_field(theta_005, kernel201,
                                                 ql_evaluator, controls1d):
    lam = 0.05
    dt = kernel201.dt
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      lam, 0.0, 1.0, 40.0, dt)
    ids = compute_indices(curve, ql_evaluator, theta_005.field,
                          lam, "kappa")
    total = exponential_action(curve, ids, ql_evaluator, lam, 0.0,
                               boundary_field=theta_005.field)
    assert abs(total - float(theta_005.field.interpolate(1.0))) <= 5e-2


def test_exponential_action_level_shift_identity(curve_z2, ql_model,
                                                 ql_evaluator, theta_005):
    # linear coupling: lowering the u level by lam*c0 adds exactly that much
    # running cost per weighted unit of time
    lam, c0 = 0.05, 2.0
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field,
                          lam, "k_bold", c0=c0)
    base = exponential_action(curve_z2, ids, ql_evaluator,
                              lam, 0.0, u_level="zero")
    shifted = exponential_action(curve_z2, ids, ql_evaluator,
                                 lam, 0.0, u_level="minusLambdaC0", c0=c0)
    w = np.exp(lam * ids.cumulative[:curve_z2.segments])
    expected = base + lam * c0 * float(np.sum(w)) * curve_z2.dt
    assert shifted == pytest.approx(expected, abs=1e-9)


def test_exponential_action_rejects_unknown_level(curve_z2, ql_model,
                                                  ql_evaluator, theta_005):
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field,
                          0.05, "kappa")
    with pytest.raises(ValueError, match="u_level"):
        exponential_action(curve_z2, ids, ql_evaluator, 0.05, 0.0,
                           u_level="halfway")


def test_windowed_dpp_residual(theta_005, kernel201, ql_evaluator, controls1d):
    lam = 0.05
    dt = kernel201.dt
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      lam, 0.0, 1.0, 20.0, dt)
    ids = compute_indices(curve, ql_evaluator, theta_005.field,
                          lam, "kappa")
    n = curve.segments
    rng = np.random.RandomState(9)
    for _ in range(20):
        j_hi = int(rng.randint(0, n - 1))
        j_lo = int(rng.randint(j_hi + 1, n + 1))
        res = window_residual(theta_005.field, curve, ids, ql_evaluator,
                              lam, 0.0, j_hi, j_lo)
        m = j_lo - j_hi
        assert res <= 10.0 * (1e-7 + curve.defect_max) * m


def test_curve_csv_roundtrip(tmp_path, curve_z2, ql_model, ql_evaluator,
                             theta_005):
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field,
                          0.05, "kappa")
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve_z2, ids)
    text = path.read_text()
    assert text.splitlines()[0] == "# t,x,a,index_value,cumulative"
    data = np.loadtxt(path, delimiter=",", comments="#")
    assert data.shape == (curve_z2.segments + 1, 5)
    np.testing.assert_array_equal(data[:, 0], curve_z2.times)
    np.testing.assert_array_equal(data[:, 1], curve_z2.points[:, 0])
    np.testing.assert_array_equal(data[:, 4], ids.cumulative)
