import math

import numpy as np
import pytest

from contact_hj.expressions import parse
from contact_hj.grid import Domain, UniformGrid
from contact_hj.hamiltonian import (ArctanCoupling, HamiltonianModel,
                                    LagrangianEvaluator, QuadraticKinetic)
from contact_hj.solver import (ControlSet, SolveParams, SolverError,
                               SweepKernel, solve_state_constraint)
from contact_hj.trajectory import (Traces, backtrace, compute_indices,
                                   exponential_action, write_curve_csv)

from conftest import window_residual


@pytest.fixture(scope="module")
def curve_z2(theta_005, kernel201):
    return backtrace(kernel201, theta_005.field, 0.05, 0.0, 2.0, 40.0)


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


def assert_matches_reference(kernel, field, lam, c, z, horizon,
                             defect_tol=None) -> tuple:
    curve = backtrace(kernel, field, lam, c, z, horizon, defect_tol)
    return curve, assert_is_reference(curve, kernel, field, lam, c, z,
                                      horizon, defect_tol)


def assert_is_reference(curve, kernel, field, lam, c, z, horizon,
                        defect_tol=None) -> int:
    """Asserts that curve is reference_backtrace's, bit for bit; returns
    the reference's count of steps with a blocked control."""
    pts, vel, defect_max, warning, blocked = reference_backtrace(
        field, kernel.evaluator, kernel.controls, lam, c, z, horizon,
        kernel.dt, defect_tol)
    assert np.array_equal(curve.points, pts)
    assert np.array_equal(curve.velocities, vel)
    assert curve.points.tobytes() == pts.tobytes()
    assert curve.velocities.tobytes() == vel.tobytes()
    assert curve.defect_max == defect_max
    assert curve.warning == warning
    return blocked


@pytest.mark.parametrize("z", [0.0, 2.0])
def test_backtrace_matches_reference_quadratic_linear(
        z, theta_005, kernel201):
    curve, _ = assert_matches_reference(kernel201, theta_005.field, 0.05,
                                        0.0, z, 10.0)
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
        z, steps, settles, theta_005, kernel201):
    curve, _ = assert_matches_reference(kernel201, theta_005.field, 0.05,
                                        0.0, z, steps * kernel201.dt)
    assert curve.segments == math.ceil(steps - 1e-9)
    assert settled(curve) == settles


def test_backtrace_tail_keeps_counting_defects(theta_005, kernel201):
    # a unit shift leaves z = 0 stationary with defect dt*lam*v at every step
    shifted = theta_005.field.with_values(theta_005.field.values + 1.0)
    curve, _ = assert_matches_reference(kernel201, shifted, 0.05, 0.0, 0.0,
                                        10.0, defect_tol=1e-6)
    n = curve.segments
    assert curve.warning.startswith(f"{n}/{n} steps exceeded")


def test_backtrace_does_not_trace_the_settled_tail(
        theta_005, kernel201, monkeypatch):
    calls = []
    multilinear = UniformGrid.multilinear

    def counted(self, table, pts, base=0):
        calls.append(len(pts))
        return multilinear(self, table, pts, base)

    monkeypatch.setattr(UniformGrid, "multilinear", counted)
    dt = kernel201.dt
    # the start value, then one step that repeats its own state
    curve = backtrace(kernel201, theta_005.field, 0.05, 0.0, 0.0, 1e4 * dt)
    assert curve.segments >= 10000
    assert len(calls) <= 2
    calls.clear()
    curve = backtrace(kernel201, theta_005.field, 0.05, 0.0, 2.0, 1e4 * dt)
    moves = np.flatnonzero(np.any(curve.points[1:] != curve.points[:-1],
                                  axis=1))
    last_move = int(moves[-1]) + 1   # steps up to and including the last move
    assert last_move < 1000
    assert len(calls) <= last_move + 2


def test_backtrace_matches_reference_arctan(arctan_solve):
    kernel, field = arctan_solve
    assert_matches_reference(kernel, field, 0.2, math.pi, 1.5, 3.0)


def test_backtrace_fills_the_arctan_tail_exactly(arctan_solve):
    kernel, field = arctan_solve
    curve, _ = assert_matches_reference(kernel, field, 0.2, math.pi,
                                        1.5, 20.0)
    assert settled(curve)


def test_backtrace_matches_reference_on_a_2d_ball_boundary(ball_2d):
    field, kernel = ball_2d
    curve, blocked = assert_matches_reference(kernel, field, 0.4, 0.0,
                                              (0.5, 1.5), 4.0)
    assert blocked >= 10
    np.testing.assert_allclose(curve.points[-1], [-2.0, 0.0], atol=1e-12)


def test_backtrace_fills_the_2d_boundary_tail_exactly(ball_2d):
    field, kernel = ball_2d
    curve, _ = assert_matches_reference(kernel, field, 0.4, 0.0,
                                        (0.5, 1.5), 12.0)
    np.testing.assert_allclose(curve.points[-1], [-2.0, 0.0], atol=1e-12)
    assert settled(curve)


def stationary_from_the_start(curve) -> bool:
    """Whether the first step repeats the start, and so every later one."""
    return (curve.points.tobytes()
            == np.tile(curve.points[0], (len(curve.points), 1)).tobytes())


def check_lockstep_batch(kernel, c, cells, well, outside):
    """One backtrace batch over cells plus a start at the well and one
    outside the mask: each good curve is reference_backtrace's, bit for bit,
    and the bad start alone fails, with the one-cell message."""
    field, lam = cells[0][0], cells[0][1]
    batch = list(cells)
    batch.insert(1, (field, lam, well, 3.0))
    batch.insert(3, (field, lam, outside, 3.0))
    fields, lams, zs, horizons = (list(col) for col in zip(*batch))
    curves = backtrace(kernel, fields, lams, c, zs, horizons)
    assert isinstance(curves, Traces) and len(curves) == len(batch)
    assert curves.segments == sum(curve.segments for k, curve
                                  in enumerate(curves) if k != 3)
    for k, ((field, lam, z, horizon), curve) in enumerate(zip(batch, curves)):
        if k == 3:
            assert isinstance(curve, SolverError)
            with pytest.raises(SolverError) as serial:
                backtrace(kernel, field, lam, c, z, horizon)
            assert str(curve) == str(serial.value)
            assert str(curve) == f"start point {list(outside)} outside the mask"
            continue
        assert_is_reference(curve, kernel, field, lam, c, z, horizon)
        if k == 1:
            assert stationary_from_the_start(curve)
    return curves


def test_lockstep_batch_quadratic_linear(theta_01, theta_005, kernel201):
    dt = kernel201.dt
    f01, f005 = theta_01.field, theta_005.field
    check_lockstep_batch(kernel201, 0.0, [
        (f005, 0.05, (2.0,), 10.0),
        (f01, 0.1, (1.0,), 1200.37 * dt),     # a tail and a partial step
        (f005, 0.05, (-3.5,), 120 * dt),      # too short to settle
        (f01, 0.1, (2.0,), 24.0),
        (f005, 0.1, (0.5,), 4.0),             # a field traced at another lam
    ], well=(0.0,), outside=(11.0,))


def test_lockstep_batch_arctan(arctan_solve):
    kernel, field = arctan_solve
    lifted = field.with_values(field.values + 0.05)
    check_lockstep_batch(kernel, math.pi, [
        (field, 0.2, (1.5,), 20.0),
        (lifted, 0.2, (-2.0,), 3.0),
        (field, 0.4, (-1.0,), 6.0),
    ], well=(0.0,), outside=(-7.0,))


def test_lockstep_batch_on_a_2d_ball(ball_2d):
    field, kernel = ball_2d
    tilted = field.with_values(field.values * 1.01)
    curves = check_lockstep_batch(kernel, 0.0, [
        (field, 0.4, (0.5, 1.5), 12.0),
        (tilted, 0.4, (1.0, -1.0), 4.0),
        (field, 0.2, (0.0, 0.0), 2.5),
    ], well=(-2.0, 0.0), outside=(2.0, 2.0))
    np.testing.assert_allclose(curves[0].points[-1], [-2.0, 0.0], atol=1e-12)
    assert settled(curves[0])


def test_backtrace_stationary_at_the_well(theta_005, kernel201):
    curve = backtrace(kernel201, theta_005.field, 0.05, 0.0, 0.0, 10.0)
    assert np.max(np.abs(curve.points)) <= 1e-12
    assert np.max(np.abs(curve.velocities)) == 0.0
    assert curve.warning == ""


def test_backtrace_confines_and_decays(curve_z2):
    x = curve_z2.points[:, 0]
    assert abs(x[-1]) <= 0.2
    assert np.max(np.abs(x)) <= 2.0 + 1e-9
    assert np.all(np.diff(np.abs(x)) <= 1e-12)  # monotone slide to the well


def test_backtrace_step_bookkeeping(theta_005, kernel201):
    dt = kernel201.dt
    curve = backtrace(kernel201, theta_005.field, 0.05, 0.0, 1.0, 10.0)
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


def test_backtrace_rejects_bad_starts(theta_005, kernel201):
    with pytest.raises(SolverError, match="outside"):
        backtrace(kernel201, theta_005.field, 0.05, 0.0, 11.0, 1.0)
    with pytest.raises(SolverError, match="dimension"):
        backtrace(kernel201, theta_005.field, 0.05, 0.0, (1.0, 1.0), 1.0)


def test_backtrace_flags_inconsistent_fields(theta_005, kernel201):
    grid = theta_005.field.grid
    xs = grid.axes[0]
    bad = theta_005.field.with_values(theta_005.field.values
                                      + 0.5 * np.sin(5.0 * xs))
    curve, _ = assert_matches_reference(kernel201, bad, 0.05, 0.0, 1.0, 2.0,
                                        defect_tol=1e-4)
    assert "defect" in curve.warning
    assert curve.defect_max > 1e-4


def test_indices_linear_coupling_are_exact(curve_z2, ql_model, ql_evaluator,
                                           theta_005):
    for c0 in (0.0, 3.0):
        ids = compute_indices(curve_z2, ql_evaluator,
                              theta_005.field, 0.05, c0=c0)
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
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field, 0.05)
    t10 = np.searchsorted(-curve_z2.times, 10.0)
    assert ids.cumulative[t10] <= -10.0 + 1e-9


def test_indices_at_c0_zero_are_the_quotient_at_level_zero(arctan_solve):
    kernel, field = arctan_solve
    ev = kernel.evaluator
    curve = backtrace(kernel, field, 0.2, math.pi, 1.5, 10.0)
    ids = compute_indices(curve, ev, field, 0.2, c0=0.0)
    n = curve.segments
    xk = curve.points[:n]
    want = ev.discount_index(xk, curve.velocities,
                             0.2 * field.interpolate(xk), np.full(n, 0.0))
    assert ids.values.tobytes() == np.asarray(want, dtype=float).tobytes()


def test_indices_arctan_levels_matter(arctan_solve):
    kernel, field = arctan_solve
    ev = kernel.evaluator
    curve = backtrace(kernel, field, 0.2, math.pi, 1.5, 10.0)
    kap = compute_indices(curve, ev, field, 0.2)
    bold = compute_indices(curve, ev, field, 0.2, c0=1.0)
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
                                                 ql_evaluator):
    lam = 0.05
    curve = backtrace(kernel201, theta_005.field, lam, 0.0, 1.0, 40.0)
    ids = compute_indices(curve, ql_evaluator, theta_005.field, lam)
    total = exponential_action(curve, ids, ql_evaluator, lam, 0.0,
                               boundary_field=theta_005.field)
    assert abs(total - float(theta_005.field.interpolate(1.0))) <= 5e-2


def test_exponential_action_level_shift_identity(curve_z2, ql_model,
                                                 ql_evaluator, theta_005):
    # linear coupling: lowering the u level by lam*c0 adds exactly that much
    # running cost per weighted unit of time
    lam, c0 = 0.05, 2.0
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field,
                          lam, c0=c0)
    base = exponential_action(curve_z2, ids, ql_evaluator, lam, 0.0)
    shifted = exponential_action(curve_z2, ids, ql_evaluator,
                                 lam, 0.0, c0=c0)
    w = np.exp(lam * ids.cumulative[:curve_z2.segments])
    expected = base + lam * c0 * float(np.sum(w)) * curve_z2.dt
    assert shifted == pytest.approx(expected, abs=1e-9)


def test_windowed_dpp_residual(theta_005, kernel201, ql_evaluator):
    lam = 0.05
    curve = backtrace(kernel201, theta_005.field, lam, 0.0, 1.0, 20.0)
    ids = compute_indices(curve, ql_evaluator, theta_005.field, lam)
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
    ids = compute_indices(curve_z2, ql_evaluator, theta_005.field, 0.05)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve_z2, ids)
    text = path.read_text()
    assert text.splitlines()[0] == "# t,x,a,index_value,cumulative"
    data = np.loadtxt(path, delimiter=",", comments="#")
    assert data.shape == (curve_z2.segments + 1, 5)
    np.testing.assert_array_equal(data[:, 0], curve_z2.times)
    np.testing.assert_array_equal(data[:, 1], curve_z2.points[:, 0])
    np.testing.assert_array_equal(data[:, 4], ids.cumulative)
