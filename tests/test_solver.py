import math

import numpy as np
import pytest

from contact_hj.experiments import builtin_models, setup
from contact_hj.expressions import parse
from contact_hj.grid import Domain, GridField, UniformGrid
from contact_hj.hamiltonian import (ArctanCoupling, HamiltonianModel,
                                    LagrangianEvaluator, LinearCoupling,
                                    NoCoupling, QuadraticKinetic)
from contact_hj.solver import (_FOOT_CHUNK, _SOLVE_BLOCK, CMismatchError,
                               ControlSet, SolveParams, SolverError,
                               SweepKernel, _ensure_table, aubry_indicator,
                               estimate_critical_value,
                               lax_oleinik_step, mane_potential, solve_ergodic,
                               solve_maximal_global, solve_state_constraint)

from contact_hj.trajectory import backtrace

from conftest import peak_bytes, quadrature_mane


# ---------------------------------------------------------------------------
# control lattices and the kernel's time step


def test_control_lattice_1d_defaults():
    cs = ControlSet.build(1)
    assert cs.max_speed == 6.0
    assert cs.da == pytest.approx(6.0 / 48.0)
    a = cs.controls[:, 0]
    assert a.shape == (97,)
    assert np.all(np.diff(a) > 0)  # lexicographic, here just increasing
    assert 0.0 in a
    np.testing.assert_allclose(a, -a[::-1], atol=0)  # sign symmetric


def test_control_lattice_2d_ball_and_order():
    cs = ControlSet.build(2, max_speed=2.0, da=1.0)
    pts = cs.controls
    assert np.all(np.sqrt(np.sum(pts ** 2, axis=1)) <= 2.0 + 1e-12)
    assert any(np.all(row == 0.0) for row in pts)
    # row-major lexicographic order fixes argmin tie-breaks
    keys = [tuple(row) for row in pts]
    assert keys == sorted(keys)


# max_speed / da rounds to 2 - 1e-12: the floor's slack takes k = 2, and
# (2·da)^2 lies just past max_speed^2 * (1 + 1e-12)
_EDGE = (3.3682216747933804, 1.6841108373975324)


@pytest.mark.parametrize("max_speed, da", [
    (123.4, 123.4 / 51), (4.0, 0.25), (4.0, 0.8), (1.0, 0.1), (2.0, 1.0),
    (6.0, 6.0 / 48.0), (0.3, 0.1), (7.0, 0.7), _EDGE])
def test_control_lattice_2d_reaches_the_1d_tips(max_speed, da):
    # the 2D ball cut keeps (±k·da, 0) and (0, ±k·da) whenever the 1D axis
    # reaches ±k·da, even when k·da rounds just above max_speed
    tip = float(np.max(ControlSet.build(1, max_speed, da).controls))
    pts = {tuple(row) for row in ControlSet.build(2, max_speed, da).controls}
    for a in (-tip, tip):
        assert (a, 0.0) in pts and (0.0, a) in pts


@pytest.mark.parametrize("max_speed, da", [
    (None, None), (6.0, 0.5), (6.0, 0.25), (3.0, 3.0), (0.7, 0.7),
    (4.0, np.nextafter(2.0, 3.0)), (1.0, 0.5000001), (123.4, 123.4 / 51),
    (0.3, 0.1), (7.0, 0.7), _EDGE])
def test_control_lattice_1d_keeps_the_whole_axis(max_speed, da):
    # the defaults, the 1D workload spacings, da = max_speed, da just above
    # max_speed / 2, and k·da rounding past max_speed
    cs = ControlSet.build(1, max_speed, da)
    k = int(math.floor(cs.max_speed / cs.da + 1e-12))
    np.testing.assert_array_equal(
        cs.controls, (cs.da * np.arange(-k, k + 1))[:, None])


def test_control_lattice_rejects_bad_inputs():
    with pytest.raises(SolverError, match="max_speed must be positive"):
        ControlSet.build(1, max_speed=0.0)
    with pytest.raises(SolverError, match="control spacing"):
        ControlSet.build(1, max_speed=1.0, da=2.0)


def test_kernel_default_dt(kernel201):
    assert kernel201.dt == pytest.approx(0.5 * 0.1 / 6.0)


def test_kernel_rejects_multi_cell_feet(grid201, ql_evaluator, controls1d):
    with pytest.raises(SolverError, match="more than one cell"):
        SweepKernel(grid201, ql_evaluator, controls1d, dt=0.05)


@pytest.mark.parametrize("dt", [0.0, -0.02, math.nan])
def test_kernel_rejects_nonpositive_dt(grid201, ql_evaluator, controls1d,
                                       dt):
    with pytest.raises(SolverError, match="must be positive"):
        SweepKernel(grid201, ql_evaluator, controls1d, dt=dt)


def test_kernel_rejects_dimension_mismatch(grid201, ql_evaluator):
    with pytest.raises(SolverError, match="dimension mismatch"):
        SweepKernel(grid201, ql_evaluator, ControlSet.build(2), dt=0.001)


@pytest.mark.parametrize("potential, phi, name", [
    ("1/x", "1", "potential f"), ("1", "1/x", "coupling factor phi")])
def test_kernel_rejects_non_finite_model(grid201, controls1d, potential, phi,
                                         name):
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse(potential),
                             coupling=LinearCoupling(parse(phi)))
    with pytest.raises(SolverError,
                       match=rf"{name} is not finite at node \[0\.0\]"):
        SweepKernel(grid201, LagrangianEvaluator(model), controls1d)


# ---------------------------------------------------------------------------
# one sweep of the operator


@pytest.mark.parametrize("coupling, kappa", [
    (LinearCoupling(parse("2 + sin(x)")), None), (ArctanCoupling(), 1.0),
    (NoCoupling(), 0.0)], ids=["sin", "arctan", "none"])
def test_kernel_kappa_lo_is_the_least_phi_on_its_nodes(controls1d, coupling,
                                                       kappa):
    # on a ball of radius 1.5 the least 2 + sin(x) is 2 + sin(-1.5); the
    # box's least, 1.0004 near x = -pi/2, lies outside the mask
    model = HamiltonianModel(
        dim=1, kinetic=QuadraticKinetic(), potential=parse("1 - exp(-x^2)"),
        coupling=coupling)
    grid = UniformGrid(Domain.ball(((-10.0, 10.0),), 1.5), (201,))
    kernel = SweepKernel(grid, LagrangianEvaluator(model), controls1d)
    if kappa is None:
        kappa = float(np.min(2.0 + np.sin(grid.points()[kernel.in_idx, 0])))
        assert kappa == pytest.approx(2.0 + math.sin(-1.5))
    assert kernel.kappa_lo == kappa
    # well clear of phi's second differences, so the traces keep it too
    assert kernel.trace_kappa == kappa


def test_step_constant_field_exact():
    # f = 0, phi = 1: sitting still is optimal and the sweep multiplies a
    # constant field by exactly (1 - lam*dt)
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("0"),
                             coupling=LinearCoupling(parse("1")))
    ev = LagrangianEvaluator(model)
    grid = UniformGrid(Domain.full_box(((-2.0, 2.0),)), (41,))
    kernel = SweepKernel(grid, ev, ControlSet.build(1))
    dt = kernel.dt
    lam, k = 0.1, 2.0
    v = GridField(grid, np.full(grid.shape, k))
    out = lax_oleinik_step(kernel, v, lam, 0.0)
    np.testing.assert_allclose(out.values, k * (1.0 - lam * dt),
                               rtol=0, atol=1e-14)


def test_step_matches_bruteforce_enumeration(ql_model, ql_evaluator):
    # independent per-node minimization with hand-rolled interpolation
    grid = UniformGrid(Domain.full_box(((-1.0, 1.0),)), (21,))
    cs = ControlSet.build(1, max_speed=2.0, da=0.5)
    lam, c = 0.3, 0.7
    rng = np.random.RandomState(7)
    vals = rng.uniform(-1.0, 3.0, size=grid.shape)
    xs = grid.axes[0]
    n = len(xs)
    dx = xs[1] - xs[0]
    f = 1.0 - np.exp(-xs ** 2)
    # at dt = 0.05 the fastest feet land exactly one cell away
    for dt in (0.025, 0.05):
        kernel = SweepKernel(grid, ql_evaluator, cs, dt)
        out = lax_oleinik_step(kernel, GridField(grid, vals), lam, c)
        # the classical discounted sweep: level 0, foot values damped by
        # exp(-delta*dt), here with delta = lam
        damped = kernel.step(vals.ravel()[kernel.in_idx], 0.0, c,
                             discount=lam)
        expected = np.empty(n)
        expected_damped = np.empty(n)
        for i in range(n):
            best = best_damped = math.inf
            for a in cs.controls[:, 0]:
                foot = xs[i] - dt * a
                if foot < xs[0] - 1e-9 or foot > xs[-1] + 1e-9:
                    continue
                delta = -dt * a / dx
                b = math.floor(delta)
                t = delta - b
                if t > 1.0 - 1e-12:
                    b += 1
                    t = 0.0
                if t < 1e-12:
                    t = 0.0
                i0 = min(max(i + b, 0), n - 1)
                i1 = min(max(i + b + 1, 0), n - 1)
                interp = (1.0 - t) * vals[i0] + t * vals[i1]
                best = min(best, dt * 0.5 * a * a + interp)
                best_damped = min(best_damped, dt * 0.5 * a * a
                                  + math.exp(-lam * dt) * interp)
            expected[i] = best + dt * (f[i] + c) - dt * lam * vals[i]
            expected_damped[i] = best_damped + dt * (f[i] + c)
        np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(damped, expected_damped, rtol=0,
                                   atol=1e-13)

    def enumerate_step(fld, ev, cs, dt):
        # per node and control, admissible feet by domain test, foot values
        # by field interpolation, L from the evaluator at level lam * v
        grid = fld.grid
        expected = fld.values.ravel().copy()  # out-of-mask nodes keep theirs
        for i in np.where(grid.mask.ravel())[0]:
            x = grid.points()[i]
            level = lam * expected[i]
            best = math.inf
            for a in cs.controls:
                foot = x - dt * a
                if not grid.domain.contains(foot[None, :], slack=1e-9)[0]:
                    continue
                interp = fld.interpolate(foot[None, :])[0]
                best = min(best, dt * (ev.legendre(x, a, level) + c) + interp)
            expected[i] = best
        return expected

    # p-coupled model: the sweep reads the sup term from the u-table, the
    # enumeration takes the lattice sup of legendre at level lam * v
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-x^2)"),
                             coupling=ArctanCoupling(shift=math.pi))
    ev = LagrangianEvaluator(model)
    fld = GridField(grid, rng.uniform(-1.0, 3.0, size=grid.shape))
    out = lax_oleinik_step(SweepKernel(grid, ev, cs, 0.05), fld, lam, c)
    np.testing.assert_allclose(out.values, enumerate_step(fld, ev, cs, 0.05),
                               rtol=0, atol=1e-6)

    # 2D ball mask
    model = HamiltonianModel(dim=2, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-(x^2 + y^2))"),
                             coupling=LinearCoupling(parse("1")))
    ev = LagrangianEvaluator(model)
    grid = UniformGrid(Domain.ball(((-1.5, 1.5),) * 2, 1.0), (13, 13))
    cs = ControlSet.build(2, max_speed=2.0, da=0.5)
    fld = GridField(grid, rng.uniform(-1.0, 3.0, size=grid.shape))
    out = lax_oleinik_step(SweepKernel(grid, ev, cs, 0.1), fld, lam, c)
    np.testing.assert_allclose(out.values.ravel(),
                               enumerate_step(fld, ev, cs, 0.1), rtol=0,
                               atol=1e-12)


def test_step_monotone_on_ordered_pairs(ql_model, ql_evaluator, controls1d):
    grid = UniformGrid(Domain.full_box(((-2.0, 2.0),)), (41,))
    kernel = SweepKernel(grid, ql_evaluator, controls1d)
    dt = kernel.dt
    lam = 0.2
    rng = np.random.RandomState(11)
    for _ in range(50):
        lo = rng.uniform(-2.0, 2.0, size=grid.shape)
        hi = lo + rng.uniform(0.0, 1.5, size=grid.shape)
        t_lo = lax_oleinik_step(kernel, GridField(grid, lo), lam, 0.0).values
        t_hi = lax_oleinik_step(kernel, GridField(grid, hi), lam, 0.0).values
        assert np.all(t_hi >= t_lo - 1e-12)
        # comparison also caps the growth by the contraction factor
        gap = np.max(hi - lo)
        assert np.all(t_hi - t_lo <= (1.0 - lam * dt) * gap + 1e-12)


def test_step_is_a_sup_norm_contraction(kernel201, theta_01):
    # consecutive sweep differences shrink by at least (1 - lam*kappa_lo*dt)
    lam = 0.1
    dt = kernel201.dt
    rng = np.random.RandomState(3)
    w = theta_01.field.with_values(
        theta_01.field.values + 1e-3 * rng.standard_normal(
            theta_01.field.values.shape))
    t1 = lax_oleinik_step(kernel201, w, lam, 0.0)
    t2 = lax_oleinik_step(kernel201, t1, lam, 0.0)
    d1 = np.max(np.abs(t1.values - w.values))
    d2 = np.max(np.abs(t2.values - t1.values))
    assert d2 <= (1.0 - lam * dt) * d1 + 1e-13


# ---------------------------------------------------------------------------
# state-constraint fixed points


def test_state_constraint_requires_positive_lam(kernel201):
    with pytest.raises(SolverError, match="lam > 0"):
        solve_state_constraint(kernel201, 0.0, 0.0)


def test_state_constraint_requires_coupling(grid201, controls1d):
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-x^2)"),
                             coupling=NoCoupling())
    kernel = SweepKernel(grid201, LagrangianEvaluator(model), controls1d)
    with pytest.raises(SolverError, match="u-coupling"):
        solve_state_constraint(kernel, 0.1, 0.0)


def test_state_constraint_diagnostics(theta_01):
    assert theta_01.converged
    assert theta_01.final_residual <= 1e-7
    bound = theta_01.extras.get("error_bound")
    if bound is not None:
        assert bound >= 0.0
    js = theta_01.to_json()
    assert js["converged"] is True and js["iterations"] > 10


def test_state_constraint_init_independence(ql_model, ql_evaluator,
                                            controls1d):
    grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), (101,))
    kernel = SweepKernel(grid, ql_evaluator, controls1d)
    p = SolveParams(tol=1e-8)
    a = solve_state_constraint(kernel, 0.2, 0.0, p)
    b = solve_state_constraint(kernel, 0.2, 0.0, p,
                               v0=np.full(grid.size, 5.0))
    assert a.converged and b.converged
    assert np.max(np.abs(a.field.values - b.field.values)) <= 2e-7


def test_state_constraint_fixed_point_residual(theta_01, kernel201):
    again = lax_oleinik_step(kernel201, theta_01.field, 0.1, 0.0)
    assert np.max(np.abs(again.values - theta_01.field.values)) <= 5e-7


def test_truncation_radius_monotone_at_center(ql_model, ql_evaluator,
                                              controls1d):
    box = ((-8.0, 8.0),)
    shape = (161,)
    p = SolveParams(tol=1e-8)
    vals = {}
    for r in (4.0, 6.0):
        grid = UniformGrid(Domain.ball(box, r), shape)
        out = solve_state_constraint(
            SweepKernel(grid, ql_evaluator, controls1d), 0.1, 0.0, p)
        assert out.converged
        vals[r] = out.field
    # shrinking the ball can only raise the constrained value
    assert float(vals[4.0].interpolate(0.0)) >= \
        float(vals[6.0].interpolate(0.0)) - 1e-10
    # off the well the same holds up to cross-grid interpolation noise
    assert float(vals[4.0].interpolate(1.0)) >= \
        float(vals[6.0].interpolate(1.0)) - 2e-8


def test_nonconvergence_reported_not_raised(kernel201):
    out = solve_state_constraint(kernel201, 0.05, 0.0,
                                 SolveParams(tol=1e-14, max_iters=5))
    assert not out.converged
    assert out.iterations == 5


def _quadratic_2d_model(potential="1 - exp(-(x^2 + y^2))"):
    return HamiltonianModel(dim=2, kinetic=QuadraticKinetic(),
                            potential=parse(potential),
                            coupling=LinearCoupling(parse("1")))


def test_thin_ball_mask_raises():
    # The mask's bounding-square corners are in-mask here, so the diagonal
    # stencil neighbour of such a corner has no in-mask node on either of
    # its grid lines; a solve would read that node's out-of-mask start value.
    model = _quadratic_2d_model()
    grid = UniformGrid(Domain.ball(((-1.0, 1.0),) * 2, 0.55,
                                   center=(0.1, 0.05)), (9, 9))
    cs = ControlSet.build(2, max_speed=1.0, da=0.25)
    with pytest.raises(SolverError, match="mask too thin for this grid"):
        SweepKernel(grid, LagrangianEvaluator(model), cs)


def test_out_of_mask_start_values_pass_through(ql_model, ql_evaluator):
    grid = UniformGrid(Domain.ball(((-4.0, 4.0),), 2.0), (41,))
    cs = ControlSet.build(1, max_speed=2.0, da=0.5)
    outside = ~grid.mask
    v0 = np.where(outside, np.random.RandomState(3).uniform(-50.0, 50.0,
                                                             grid.shape), 0.0)
    kernel = SweepKernel(grid, ql_evaluator, cs)
    p = SolveParams(tol=1e-6)
    theta = solve_state_constraint(kernel, 0.2, 0.0, p, v0=v0)
    erg = solve_ergodic(kernel, 0.0, p, v0=v0)
    mane = mane_potential(kernel, 0.0, 0.0, p)
    assert theta.converged and erg.converged
    for fld in (theta.field, erg.field):
        np.testing.assert_array_equal(fld.values[outside], v0[outside])
        assert np.all(np.abs(fld.values[grid.mask]) < 10.0)
    np.testing.assert_array_equal(mane.values[outside], 1e6)
    assert np.all(mane.values[grid.mask] < 10.0)


def test_no_admissible_control_raises(ql_model, ql_evaluator, grid201):
    one_sided = ControlSet(max_speed=6.0, da=6.0,
                           controls=np.array([[6.0]]))
    with pytest.raises(SolverError, match="no admissible control"):
        SweepKernel(grid201, ql_evaluator, one_sided)


def _blocked_per_control(kernel):
    """SweepKernel.blocked by one Domain.contains call per control."""
    pts = kernel.grid.points()[kernel.in_idx]
    return np.column_stack([
        ~kernel.grid.domain.contains(pts - kernel.dt * a, slack=1e-9)
        for a in kernel.controls.controls])


def test_kernel_blocked_matches_a_per_control_domain_test(kernel201):
    ball = _ball_kernel_2d((21, 21), 3.0, 0.8)
    wide = _ball_kernel_2d((61, 61), 3.0, 0.8)  # feet span two chunks
    assert len(ball.controls.controls) == 81
    assert len(wide.in_idx) > _FOOT_CHUNK // 81
    for kernel in (kernel201, ball, wide):
        want = _blocked_per_control(kernel)
        assert np.any(want)
        np.testing.assert_array_equal(kernel.blocked, want)


def test_ball_too_thin_for_the_control_set_raises():
    # controls along x alone: at the ball's nodes (0, +-R) both feet leave
    # the ball, while every stencil finds in-mask nodes
    grid = UniformGrid(Domain.ball(((-4.0, 4.0),) * 2, 2.0), (21, 21))
    along_x = ControlSet(max_speed=1.0, da=1.0,
                         controls=np.array([[-1.0, 0.0], [1.0, 0.0]]))
    message = (r"no admissible control at node \[0\.0, -2\.0\]; "
               "mask too thin for this control set")
    with pytest.raises(SolverError, match=message):
        SweepKernel(grid, LagrangianEvaluator(_quadratic_2d_model()), along_x)


def test_kernel_build_memory_is_bounded():
    # a 161^2 ball with the 797 default controls: its 13,965 x 797 feet alone
    # take 170 MB; built _FOOT_CHUNK feet at a time the peak is near 18 MB
    grid = UniformGrid(Domain.ball(((-6.0, 6.0),) * 2, 5.0), (161, 161))
    ev = LagrangianEvaluator(_quadratic_2d_model())
    controls = ControlSet.build(2)
    assert peak_bytes(lambda: SweepKernel(grid, ev, controls)) < 64 << 20


def test_kernel_build_temporaries_are_sized_by_feet():
    # an 81^2 ball with the 797 default controls: 1,024 rows of feet per
    # block took 38 MB, blocks of _FOOT_CHUNK feet leave under 4 MB beside
    # the 2.8 MB admissibility table the kernel keeps
    grid = UniformGrid(Domain.ball(((-6.0, 6.0),) * 2, 5.0), (81, 81))
    ev = LagrangianEvaluator(_quadratic_2d_model())
    controls = ControlSet.build(2)
    kernel = SweepKernel(grid, ev, controls)
    assert kernel.blocked.shape == (3505, 797)
    peak = peak_bytes(lambda: SweepKernel(grid, ev, controls))
    assert peak < kernel.blocked.nbytes + (8 << 20)


def test_shared_kernel_carries_no_state_between_solves():
    # p-coupled solves build sup-term tables as they go: the solves on one
    # shared kernel must give the bytes of the same solves on fresh kernels
    config = builtin_models()["arctan"]
    ev = LagrangianEvaluator(config.build_model())
    grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), (61,))
    cs = ControlSet.build(1, da=0.25)
    params = SolveParams(tol=1e-8)

    def fields(kernel_for):
        theta = solve_state_constraint(kernel_for(), 0.2, config.c, params)
        erg = solve_ergodic(kernel_for(), config.c, params,
                            v0=theta.field.values)
        return theta.field.values.tobytes(), erg.field.values.tobytes()

    shared = SweepKernel(grid, ev, cs)
    assert fields(lambda: shared) == fields(lambda: SweepKernel(grid, ev, cs))


# ---------------------------------------------------------------------------
# critical value


def test_critical_value_gaussian_well(kernel201):
    est = estimate_critical_value(kernel201, (0.2, 0.1, 0.05),
                                  SolveParams(tol=1e-8))
    assert abs(est.richardson) <= 0.02
    assert est.m0 == pytest.approx(0.0, abs=1e-6)
    assert len(est.table) == 3
    js = est.to_json()
    assert js["value"] == js["richardson"] == est.richardson
    assert len(js["table"]) == 3 and js["m0"] == est.m0


def test_critical_value_shifted_potential(ql_evaluator, controls1d):
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("(1 - exp(-x^2)) + 1"),
                             coupling=LinearCoupling(parse("1")))
    grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), (201,))
    kernel = SweepKernel(grid, LagrangianEvaluator(model), controls1d)
    est = estimate_critical_value(kernel, (0.2, 0.1, 0.05),
                                  SolveParams(tol=1e-8))
    assert -1.02 <= est.richardson <= -0.98
    assert est.m0 == pytest.approx(-1.0, abs=1e-6)


def test_critical_value_builds_no_sup_table(monkeypatch):
    # the discounted solves read L at u = 0 only: a p-coupled model needs
    # the u = 0 row, never a table over u
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-x^2)"),
                             coupling=ArctanCoupling(shift=math.pi))
    builds = []
    build = LagrangianEvaluator.coupling_table

    def counting_build(self, *args):
        builds.append(args)
        return build(self, *args)

    monkeypatch.setattr(LagrangianEvaluator, "coupling_table", counting_build)
    grid = UniformGrid(Domain.full_box(((-3.0, 3.0),)), (31,))
    kernel = SweepKernel(grid, LagrangianEvaluator(model),
                         ControlSet.build(1, da=0.5))
    est = estimate_critical_value(kernel, (0.4, 0.2), SolveParams(tol=1e-6))
    assert builds == []
    assert est.richardson >= est.m0 - est.margin


def test_solve_reports_its_table_builds(monkeypatch):
    # extras["table_builds"] counts the solve's coupling_table calls: a
    # p-coupled solve at lam > 0 builds at least one, a separable one none
    builds = []
    build = LagrangianEvaluator.coupling_table

    def counting_build(self, *args):
        builds.append(args)
        return build(self, *args)

    monkeypatch.setattr(LagrangianEvaluator, "coupling_table", counting_build)
    grid = UniformGrid(Domain.full_box(((-3.0, 3.0),)), (31,))
    controls = ControlSet.build(1, da=0.5)
    for coupling, c in ((ArctanCoupling(shift=math.pi), math.pi),
                        (LinearCoupling(parse("1")), 0.0)):
        model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                                 potential=parse("1 - exp(-x^2)"),
                                 coupling=coupling)
        kernel = SweepKernel(grid, LagrangianEvaluator(model), controls)
        del builds[:]
        out = solve_state_constraint(kernel, 0.2, c, SolveParams(tol=1e-8))
        assert out.converged
        assert out.extras["table_builds"] == len(builds)
        assert (len(builds) >= 1) == (coupling.kind == "arctan")


def test_critical_value_rejects_bad_sequence(kernel201):
    with pytest.raises(SolverError, match="strictly decreasing"):
        estimate_critical_value(kernel201, (0.1,))
    with pytest.raises(SolverError, match="strictly decreasing"):
        estimate_critical_value(kernel201, (0.1, 0.2))


def test_critical_value_rejects_nonpositive_lam(kernel201):
    with pytest.raises(SolverError, match="positive"):
        estimate_critical_value(kernel201, (0.1, 0.0))


def test_critical_value_m0_guard_trips(kernel201):
    # probing far from the well at large lam leaves an O(lam^2) hole that
    # Richardson cannot repair; the sampled lower bound catches it
    with pytest.raises(SolverError, match="lower bound"):
        estimate_critical_value(kernel201, (0.4, 0.2),
                                SolveParams(tol=1e-8), x0=3.0)


# ---------------------------------------------------------------------------
# policy iteration: the frozen-policy solve and agreement with value iteration


def _dense_policy_matrix(kernel, policy, diag, scale):
    n = len(kernel.in_idx)
    mat = np.diag(np.asarray(diag, dtype=float))
    for i in range(n):
        for k, j in enumerate(kernel.stencil[i]):
            mat[i, j] -= scale * kernel.weights[k, policy[i]]
    return mat


def _ball_kernel_2d(shape, radius, da, potential="1 - exp(-(x^2 + y^2))"):
    grid = UniformGrid(Domain.ball(((-4.0, 4.0),) * 2, radius), shape)
    return SweepKernel(grid,
                       LagrangianEvaluator(_quadratic_2d_model(potential)),
                       ControlSet.build(2, da=da))


def _heading_policy(kernel, target):
    """The argmin policy of a sweep at 1e6 times the distance to the in-mask
    position target: every other node heads toward it."""
    pts = kernel.grid.points()[kernel.in_idx]
    policy = np.empty(len(pts), dtype=np.intp)
    kernel.step(1e6 * np.linalg.norm(pts - pts[target], axis=1), 0.0, 0.0,
                policy=policy)
    return policy


def _weigh_far_entry(kernel, policy, row):
    """Switch row's control to the first one that weighs its far entry."""
    rows, slots, _ = kernel.far
    slot = slots[np.flatnonzero(rows == row)[0]]
    policy[row] = np.flatnonzero(kernel.weights[slot] > 0)[0]


def _assert_matches_dense(kernel, policy, diag, scale, rhs):
    got = kernel.policy_solve(policy, diag, scale, rhs)
    want = np.linalg.solve(
        _dense_policy_matrix(kernel, policy, diag, scale), rhs)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-9 * np.max(np.abs(want)))


def test_policy_solve_multi_block_matches_dense(kernel401):
    rng = np.random.RandomState(11)
    ball = _ball_kernel_2d((41, 41), 3.0, 0.8)
    grid2 = ball.grid
    # the ball's boundary stencils go through replacement_map
    node = np.column_stack(np.unravel_index(ball.in_idx, grid2.shape))
    raw = np.ravel_multi_index(tuple(np.moveaxis(np.clip(
        node[:, None, :] + np.array([[-1, -1], [1, 1]]), 0, 40), -1, 0)),
        grid2.shape)
    assert not np.all(grid2.mask.ravel()[raw])
    # and some of them reach past the bandwidth: the far entries, which
    # every far row below weighs, so each solve widens its band to them
    assert len(ball.far[0]) > 0
    for kernel in (kernel401, ball):
        n = len(kernel.in_idx)
        block = max(kernel.bandwidth, min(n, _SOLVE_BLOCK))
        assert n > 256 and block < n  # several blocks
        far_rows = np.unique(kernel.far[0])
        for scale in (1.0, 0.97):
            policy = rng.randint(0, kernel.weights.shape[1], n)
            for row in far_rows:
                _weigh_far_entry(kernel, policy, row)
            diag = 1.0 + rng.uniform(1e-4, 0.1, n)
            _assert_matches_dense(kernel, policy, diag, scale,
                                  rng.uniform(-1.0, 1.0, n))
            # held rows: the stay control with diag = scale + 1
            held = rng.rand(n) < 0.1
            policy[held], diag[held] = kernel.stay, scale + 1.0
            _assert_matches_dense(kernel, policy, diag, scale,
                                  rng.uniform(-1.0, 1.0, n))
        # the λ = 0 shape: diag = scale = 1 but one held row, which every
        # other row heads toward, the far rows through their far entries
        centre = n // 2
        policy = _heading_policy(kernel, centre)
        for row in far_rows:
            _weigh_far_entry(kernel, policy, row)
        policy[centre] = kernel.stay
        diag = np.ones(n)
        diag[centre] = 2.0
        _assert_matches_dense(kernel, policy, diag, 1.0,
                              rng.uniform(-1.0, 1.0, n))


def test_tilted_ball_solve_weighs_far_entries(monkeypatch):
    # potential x draws the curves to the ball's rim, whose rows hold the
    # far entries, so the solve's own frozen policies weigh some of them
    ball = _ball_kernel_2d((41, 41), 3.0, 0.8, potential="x")
    rows, slots, _ = ball.far
    solve = ball.policy_solve
    weighed = []

    def checked(policy, diag, scale, rhs):
        got = solve(policy, diag, scale, rhs)
        if np.any(ball.weights[slots, policy[rows]] > 0):
            weighed.append(True)
            want = np.linalg.solve(
                _dense_policy_matrix(ball, policy, diag, scale), rhs)
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-9 * np.max(np.abs(want)))
        return got

    monkeypatch.setattr(ball, "policy_solve", checked)
    assert solve_state_constraint(ball, 0.2, 0.0, SolveParams()).converged
    assert weighed


@pytest.mark.parametrize("path", ["block", "far_row", "moving_sink"])
def test_policy_solve_singular_2d_ball_names_rows(path):
    ball = _ball_kernel_2d((41, 41), 3.0, 0.8)
    n = len(ball.in_idx)
    if path == "block":
        # one row stays put undiscounted: a zero row inside one block
        row = n // 2
        policy = np.full(n, ball.stay)
        diag = np.full(n, 2.0)
        diag[row] = 1.0
        block = max(ball.bandwidth, min(n, _SOLVE_BLOCK))
        lo = row - row % block
        match = rf"singular in rows {lo}\.\.{lo + block - 1} "
    else:
        # nothing is discounted or held and every row heads toward one row,
        # which moves on: the rows of A sum to 0, yet rounding leaves every
        # pivot nonzero, so only the condition test sees the singular
        # system, and must without a RuntimeWarning. The far row leaves
        # through its far entry; the interior sink weighs none
        rows, slots, _ = ball.far
        row = int(rows[0]) if path == "far_row" else n // 2
        policy = _heading_policy(ball, row)
        if path == "far_row":
            _weigh_far_entry(ball, policy, row)
        else:
            # the first control that moves along both axes; some others, the
            # first control (-4, 0) among them, leave an exactly zero pivot,
            # which the block solve reports
            policy[row] = np.flatnonzero(
                np.all(ball.controls.controls != 0, axis=1))[0]
            assert not ball.blocked[row, policy[row]]
            assert not np.any(ball.weights[slots, policy[rows]])
        diag = np.ones(n)
        match = (rf"singular in rows \[0, 1, 2, .*\] and {n - 10} more "
                 r"\(condition bound")
    with pytest.raises(SolverError, match=match):
        ball.policy_solve(policy, diag, 1.0, np.ones(n))


def test_tiny_discount_is_not_taken_as_singular():
    # at lam = 1e-8 on the preset's 401 nodes, max A^-1 1 is about
    # 1/(lam*dt*kappa_lo), so the condition bound reads about 4.8e10
    cfg = builtin_models()["quadratic-linear"]
    kernel = setup(cfg)
    assert kernel.grid.shape == (401,)
    out = solve_state_constraint(kernel, 1e-8, cfg.c, cfg.build_params())
    assert out.converged


def _value_iterate(kernel, v, lam, c, tol, discount=0.0, pin=None,
                   anchor=None):
    """Plain value iteration of the sweep: the reference for the solver.

    Reads the sup-term table like the solver, holds the in-mask position pin
    at 0 and renormalises at the position anchor after every sweep. Stops at
    residual tol*gain, gain the contraction margin of one sweep (1 at λ = 0
    and where κ_lo vanishes). Returns (v, error bound, sweeps).
    """
    if discount:
        gain = -math.expm1(-discount * kernel.dt)
    elif lam > 0 and kernel.kappa_lo > 0:
        gain = lam * kernel.kappa_lo * kernel.dt
    else:
        gain = 1.0
    table = None
    for sweep in range(1, 100001):
        table = _ensure_table(kernel, table, lam, v)
        v_new = kernel.step(v, lam, c, discount, table=table)
        if pin is not None:
            v_new[pin] = 0.0
        if anchor is not None:
            v_new -= v_new[anchor]
        res = float(np.max(np.abs(v_new - v)))
        v = v_new
        if res <= tol * gain:
            return v, res / gain, sweep
    raise AssertionError(f"value iteration stalled at residual {res:g}")


def _assert_agrees(out, kernel, lam, c, params, discount=0.0):
    assert out.converged
    v, bound, _ = _value_iterate(kernel, np.zeros(len(kernel.in_idx)), lam,
                                 c, params.tol, discount)
    gap = np.max(np.abs(out.field.values.ravel()[kernel.in_idx] - v))
    assert gap <= out.extras["error_bound"] + bound


def test_policy_iteration_agrees_with_value_iteration_phi_preset():
    model = builtin_models()["quadratic-phi"].build_model()
    ev = LagrangianEvaluator(model)
    grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), (201,))
    kernel = SweepKernel(grid, ev, ControlSet.build(1))
    params = SolveParams(tol=1e-8)
    out = solve_state_constraint(kernel, 0.1, 0.0, params)
    _assert_agrees(out, kernel, 0.1, 0.0, params)


def test_policy_iteration_agrees_with_value_iteration_2d_ball():
    kernel = _ball_kernel_2d((21, 21), 3.0, 0.8)
    params = SolveParams(tol=1e-8)
    out = solve_state_constraint(kernel, 0.2, 0.0, params)
    _assert_agrees(out, kernel, 0.2, 0.0, params)


def test_policy_iteration_agrees_with_value_iteration_critical(kernel201):
    params = SolveParams(tol=1e-8)
    est = estimate_critical_value(kernel201, (0.2, 0.1), params)
    for (lam, _), out in zip(est.table, est.outcomes):
        _assert_agrees(out, kernel201, 0.0, 0.0, params, discount=lam)


@pytest.mark.parametrize("shape, da, lams", [
    ((61,), 0.25, (0.2, 0.1)),  # cold, then warm from the first solve
    ((201,), None, (0.2,))])    # the arctan preset grid
def test_newton_howard_agrees_with_value_iteration_arctan(shape, da, lams):
    config = builtin_models()["arctan"]
    model = config.build_model()
    ev = LagrangianEvaluator(model)
    grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), shape)
    kernel = SweepKernel(grid, ev, ControlSet.build(1, da=da))
    params = SolveParams(tol=1e-8)
    v0, ref = None, np.zeros(grid.size)
    for lam in lams:
        out = solve_state_constraint(kernel, lam, config.c, params, v0=v0)
        assert out.converged
        ref, ref_bound, _ = _value_iterate(kernel, ref, lam, config.c,
                                           params.tol)
        gap = np.max(np.abs(out.field.values.ravel() - ref))
        assert gap <= out.extras["error_bound"] + ref_bound
        v0 = out.field.values


def test_vanishing_phi_policy_iteration_matches_value_iteration(
        ql_evaluator, controls1d):
    # phi = x^2 vanishes at the node x = 0, where sitting still makes the
    # frozen-policy row zero and the direct solve reports the singular
    # system; policy iteration holds that node, as value iteration leaves
    # it where it is, and lands on value iteration's fixed point
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-x^2)"),
                             coupling=LinearCoupling(parse("x^2")))
    grid = UniformGrid(Domain.full_box(((-2.0, 2.0),)), (41,))
    kernel = SweepKernel(grid, LagrangianEvaluator(model), controls1d)
    n = len(kernel.in_idx)
    with pytest.raises(SolverError, match="singular"):
        kernel.policy_solve(np.full(n, kernel.stay),
                            1.0 + kernel.dt * 0.5 * kernel.phi_in, 1.0,
                            np.zeros(n))
    out = solve_state_constraint(kernel, 0.5, 0.0, SolveParams(tol=1e-10))
    assert out.converged and out.iterations <= 30
    ref, _, sweeps = _value_iterate(kernel, np.zeros(n), 0.5, 0.0, 1e-14)
    assert sweeps > 1000
    assert np.max(np.abs(out.field.values.ravel() - ref)) <= 1e-11


# ---------------------------------------------------------------------------
# ergodic solve


def test_ergodic_matches_quadrature(ergodic201):
    xs = np.linspace(-3.0, 3.0, 121)
    diff = ergodic201.field.interpolate(xs[:, None]) - quadrature_mane(xs)
    assert np.max(np.abs(diff)) <= 1e-1


def test_ergodic_anchor_is_zero(ergodic201):
    assert abs(float(ergodic201.field.interpolate(0.0))) <= 1e-12


def test_ergodic_wrong_c_raises_mismatch(ql_model, ql_evaluator, controls1d):
    # staying at the well bottom costs f(0) + c = c per unit time, and no
    # cycle costs less: the rate is c itself
    grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), (101,))
    kernel = SweepKernel(grid, ql_evaluator, controls1d)
    with pytest.raises(CMismatchError) as exc:
        solve_ergodic(kernel, 0.5, SolveParams(tol=1e-9))
    assert isinstance(exc.value, SolverError)
    assert abs(exc.value.rate - 0.5) <= 1e-12


def test_lam0_solves_agree_with_value_iteration(kernel201, ergodic201):
    # value iteration run to the float floor is the discrete fixed point
    # that policy iteration returns, pinned and ergodic alike
    n, pin = len(kernel201.in_idx), 100
    start = np.full(n, 1e6)
    start[pin] = 0.0
    ref, bound, _ = _value_iterate(kernel201, start, 0.0, 0.0, 1e-14,
                                   pin=pin)
    mane = mane_potential(kernel201, 0.0, 0.0, SolveParams(tol=1e-8))
    assert bound <= 1e-14
    assert np.max(np.abs(mane.values.ravel() - ref)) <= 1e-11
    ref, _, _ = _value_iterate(kernel201, np.zeros(n), 0.0, 0.0, 1e-14,
                               anchor=pin)
    assert np.max(np.abs(ergodic201.field.values.ravel() - ref)) <= 1e-11
    assert ergodic201.extras["error_bound"] <= 1e-13


def test_ergodic_keeps_the_well_levels_of_v0(controls1d):
    # two wells at x = -2 and 2: the Aubry nodes are held at their v0
    # levels, so the proxy keeps their 0.3 gap where value iteration does
    model = HamiltonianModel(
        dim=1, kinetic=QuadraticKinetic(),
        potential=parse("(1 - exp(-(x-2)^2))*(1 - exp(-(x+2)^2))"),
        coupling=LinearCoupling(parse("1")))
    grid = UniformGrid(Domain.full_box(((-6.0, 6.0),)), (121,))
    kernel = SweepKernel(grid, LagrangianEvaluator(model), controls1d)
    v0 = np.where(grid.axes[0] > 0.0, 0.3, 0.0)
    out = solve_ergodic(kernel, 0.0, SolveParams(tol=1e-8), anchor=-2.0, v0=v0)
    assert out.converged
    wells = out.field.interpolate(np.array([[-2.0], [2.0]]))
    assert wells[0] == 0.0
    assert abs(wells[1] - 0.3) <= 1e-12
    ref, _, _ = _value_iterate(kernel, v0, 0.0, 0.0, 1e-14, anchor=40)
    assert np.max(np.abs(out.field.values.ravel() - ref)) <= 1e-11


def test_ergodic_anchor_outside_mask_raises(ql_evaluator, controls1d):
    grid = UniformGrid(Domain.ball(((-8.0, 8.0),), 3.0), (161,))
    kernel = SweepKernel(grid, ql_evaluator, controls1d)
    with pytest.raises(SolverError, match="anchor"):
        solve_ergodic(kernel, 0.0, anchor=7.0)


# ---------------------------------------------------------------------------
# pinned semi-distance and the one-step defect


def test_mane_zero_at_pin_and_nonnegative(kernel201):
    fld = mane_potential(kernel201, 0.0, 0.0, SolveParams(tol=1e-7))
    assert float(fld.interpolate(0.0)) == 0.0
    assert np.min(fld.values) >= -1e-12
    xs = np.linspace(-3.0, 3.0, 121)
    diff = fld.interpolate(xs[:, None]) - quadrature_mane(xs)
    assert np.max(np.abs(diff)) <= 1e-1


def test_mane_triangle_inequality(kernel201):
    p = SolveParams(tol=1e-7)
    pins = {y: mane_potential(kernel201, y, 0.0, p) for y in (0.0, 1.0, -2.0)}
    rng = np.random.RandomState(5)
    xs = rng.uniform(-4.0, 4.0, size=40)
    for y, z in ((0.0, 1.0), (0.0, -2.0), (1.0, -2.0)):
        lhs = pins[y].interpolate(xs[:, None])
        rhs = pins[z].interpolate(xs[:, None]) + float(pins[y].interpolate(z))
        assert np.all(lhs <= rhs + 0.15)


def test_mane_pin_outside_mask_raises(ql_evaluator, controls1d):
    grid = UniformGrid(Domain.ball(((-8.0, 8.0),), 3.0), (161,))
    kernel = SweepKernel(grid, ql_evaluator, controls1d)
    with pytest.raises(SolverError, match="pin"):
        mane_potential(kernel, 7.0, 0.0)


def test_mane_observed_order_against_quadrature(ql_model, ql_evaluator,
                                                controls1d, params_tight,
                                                mane401):
    # the first-order scheme's error on [-3, 3] halves with dx: one
    # solve each at dx = 0.2, 0.1 and 0.05 on [-10, 10]
    errors = []
    for n in (101, 201, 401):
        grid = UniformGrid(Domain.full_box(((-10.0, 10.0),)), (n,))
        fld = mane401 if n == 401 else mane_potential(
            SweepKernel(grid, ql_evaluator, controls1d), 0.0, 0.0,
            params_tight)
        xs = grid.axes[0][np.abs(grid.axes[0]) <= 3.0 + 1e-9]
        err = fld.interpolate(xs[:, None]) - quadrature_mane(xs)
        assert np.min(err) >= 0.0  # the scheme overestimates S
        errors.append(float(np.max(err)))
    assert errors[-1] > 0.0
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((orders >= 0.8) & (orders <= 1.1)), (errors, orders)


def test_two_dimensional_radial_oracle_solve_and_trace():
    # radial Gaussian well: S(x, 0) is the 1D quadrature at |x|
    model = HamiltonianModel(
        dim=2, kinetic=QuadraticKinetic(),
        potential=parse("1 - exp(-(x^2 + y^2))"),
        coupling=LinearCoupling(parse("1")))
    ev = LagrangianEvaluator(model)
    controls = ControlSet.build(2)
    grid = UniformGrid(Domain.ball(((-3.0, 3.0),) * 2, 2.5), (31, 31))
    kernel = SweepKernel(grid, ev, controls)
    params = SolveParams(tol=1e-7)
    fld = mane_potential(kernel, (0.0, 0.0), 0.0, params)
    inside = grid.mask.ravel()
    pts = grid.points()[inside]
    err = fld.values.ravel()[inside] - quadrature_mane(
        np.linalg.norm(pts, axis=1))
    dx = grid.dx[0]
    assert np.min(err) >= 0.0
    # on the axes the error is the 1D one, about 0.7 dx; off them the
    # stencil is not aligned with the rays and it is about 1.3 dx
    on_axis = np.any(pts == 0.0, axis=1)
    assert np.max(err[on_axis]) <= dx
    assert np.max(err) <= 1.5 * dx

    out = solve_state_constraint(kernel, 0.2, 0.0, params)
    assert out.converged
    curve = backtrace(kernel, out.field, 0.2, 0.0, (1.0, 0.0), 10.0)
    assert curve.warning == ""
    # the minimizer from (1, 0) runs down the axis into the well bottom
    radius = np.linalg.norm(curve.points, axis=1)
    assert np.all(np.diff(radius) <= 1e-12)
    assert np.all(curve.points[:, 1] == 0.0)
    assert radius[-1] <= dx


def test_aubry_indicator_separates_the_well(kernel201):
    dt = kernel201.dt
    delta = aubry_indicator(kernel201, 0.0, [0.0, 2.0], SolveParams(tol=1e-7))
    assert delta[0] <= 1e-2
    assert delta[1] >= 0.25 * dt  # roughly f(2)*dt, never grid noise
    assert np.all(delta >= -1e-12)


def test_aubry_indicator_flat_potential_vanishes():
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("0"),
                             coupling=LinearCoupling(parse("1")))
    grid = UniformGrid(Domain.full_box(((-2.0, 2.0),)), (41,))
    kernel = SweepKernel(grid, LagrangianEvaluator(model), ControlSet.build(1))
    delta = aubry_indicator(kernel, 0.0, [0.5, -1.0],
                            SolveParams(tol=1e-4, max_iters=20000))
    np.testing.assert_allclose(delta, 0.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# growing-ball maximal solves


def test_maximal_global_stabilizes(ql_evaluator, controls1d):
    out = solve_maximal_global(ql_evaluator, controls1d, 0.1, 0.0,
                               (3.0, 4.0, 5.0, 6.0), 1.0,
                               SolveParams(tol=1e-8), box=((-8.0, 8.0),),
                               shape=(161,), stab_tol=1e-3)
    assert out.converged
    assert out.extras["stabilized"]
    assert out.extras["stabilized_at"] <= 6.0
    hist = out.extras["stabilization"]
    assert len(hist) >= 2
    assert abs(hist[-1][1] - hist[-2][1]) < 1e-3
    assert out.field.meta["kind"] == "maximal_truncated"
    # maximal-solution proxies stay above the flat subsolution level
    assert np.min(out.field.values[out.field.grid.mask]) >= -1e-2


def test_maximal_global_reports_nonstabilized(ql_evaluator, controls1d):
    out = solve_maximal_global(ql_evaluator, controls1d, 0.1, 0.0, (3.0, 4.0),
                               1.0, SolveParams(tol=1e-8), box=((-8.0, 8.0),),
                               shape=(161,), stab_tol=1e-16)
    assert out.converged
    assert not out.extras["stabilized"]
    assert out.extras["stabilized_at"] is None
    assert len(out.extras["stabilization"]) == 2


def test_maximal_global_rejects_bad_schedule(ql_evaluator, controls1d):
    with pytest.raises(SolverError, match="r_schedule"):
        solve_maximal_global(ql_evaluator, controls1d, 0.1, 0.0, (4.0,), 0.0,
                             box=((-8.0, 8.0),), shape=(161,))
    with pytest.raises(SolverError, match="r_schedule"):
        solve_maximal_global(ql_evaluator, controls1d, 0.1, 0.0, (4.0, 3.0),
                             0.0, box=((-8.0, 8.0),), shape=(161,))
