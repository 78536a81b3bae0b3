import math

import numpy as np
import pytest

from contact_hj.grid import DomainError, GridField
from contact_hj.measures import (TestFunction, TestFunctionBattery,
                                 WeightedSampleMeasure, closedness_defect,
                                 default_battery, discounted_measure,
                                 mather_defect, selection_functional,
                                 weak_limit_diagnostics, write_measure_csv)
from contact_hj.trajectory import Curve, IndexSeries, backtrace, compute_indices


def point_mass(x, v):
    return WeightedSampleMeasure(points=np.array([[float(x)]]),
                                 velocities=np.array([[float(v)]]),
                                 weights=np.array([1.0]))


@pytest.fixture(scope="module")
def traced(theta_01, theta_005, kernel201, ql_evaluator, controls1d):
    """kappa-weighted measures at z=1 for lam = 0.1 and 0.05."""
    out = {}
    dt = kernel201.dt
    for lam, solve in ((0.1, theta_01), (0.05, theta_005)):
        horizon = max(40.0, math.log(10.0) / lam)
        curve = backtrace(solve.field, ql_evaluator, controls1d,
                          lam, 0.0, 1.0, horizon, dt)
        ids = compute_indices(curve, ql_evaluator, solve.field,
                              lam, "kappa")
        out[lam] = discounted_measure(curve, ids, lam)
    return out


# ---------------------------------------------------------------------------
# the measure container and test functions


def test_measure_validates_weights():
    pts = np.zeros((2, 1))
    vel = np.zeros((2, 1))
    with pytest.raises(ValueError, match="not 1"):
        WeightedSampleMeasure(pts, vel, np.array([0.25, 0.25]))
    with pytest.raises(ValueError, match="negative"):
        WeightedSampleMeasure(pts, vel, np.array([1.5, -0.5]))


def test_measure_support_and_pairing():
    mu = WeightedSampleMeasure(points=np.array([[1.0], [-3.0]]),
                               velocities=np.array([[0.5], [2.0]]),
                               weights=np.array([0.25, 0.75]))
    assert mu.support_radius == 3.0
    got = mu.pair(lambda p, v: p[:, 0] ** 2 + v[:, 0])
    assert got == pytest.approx(0.25 * 1.5 + 0.75 * 11.0)


def test_test_function_exact_gradients():
    cubic = TestFunction.from_text("x^3", 1)
    pts = np.array([[0.5], [-2.0]])
    np.testing.assert_allclose(cubic(pts), [0.125, -8.0], atol=1e-15)
    np.testing.assert_allclose(cubic.grad(pts)[:, 0], [0.75, 12.0],
                               atol=1e-15)
    xy = TestFunction.from_text("x*y", 2)
    pts2 = np.array([[2.0, 3.0]])
    np.testing.assert_allclose(xy.grad(pts2), [[3.0, 2.0]], atol=1e-15)


def test_default_battery_sizes():
    assert len(default_battery(1)) == 5
    assert len(default_battery(2)) == 11
    for fn in default_battery(1):
        assert fn.grad(np.array([[0.3]])).shape == (1, 1)


# ---------------------------------------------------------------------------
# discounted measures from curves


def test_discounted_measure_geometric_weights(theta_005, kernel201,
                                              ql_evaluator, controls1d):
    # stationary curve at the well: indices are -1, so the per-step weights
    # are an exact geometric sequence and the measure is one atom
    lam = 0.05
    dt = kernel201.dt
    curve = backtrace(theta_005.field, ql_evaluator, controls1d,
                      lam, 0.0, 0.0, 10.0, dt)
    ids = compute_indices(curve, ql_evaluator, theta_005.field,
                          lam, "kappa")
    mu = discounted_measure(curve, ids, lam)
    assert mu.weights.tolist() == [1.0]
    np.testing.assert_array_equal(mu.points, curve.points[:1])
    np.testing.assert_array_equal(mu.velocities, curve.velocities[:1])
    n = curve.segments
    w = ids.weights(lam)
    assert w.shape == (n + 1,)
    w = w / float(np.sum(w))
    q = math.exp(-lam * dt)
    w0 = (1.0 - q) / (1.0 - q ** (n + 1))
    assert abs(w[0] - w0) <= 1e-12
    ratios = w[1:] / w[:-1]
    np.testing.assert_allclose(ratios, q, rtol=0, atol=1e-12)


def per_step_measure(curve, indices, lam):
    """One sample per time node: the reference the atoms merge."""
    w = indices.weights(lam) * curve.dt
    w = w / float(np.sum(w))
    vel = np.vstack([curve.velocities, curve.velocities[-1:]])
    return WeightedSampleMeasure(points=curve.points, velocities=vel,
                                 weights=w / float(np.sum(w)))


def tail_start(curve) -> int:
    """First time node from which every (point, velocity) sample repeats."""
    vel = np.vstack([curve.velocities, curve.velocities[-1:]])
    samples = np.hstack([curve.points, vel])
    moved = np.flatnonzero(np.any(samples[1:] != samples[:-1], axis=1))
    return int(moved[-1]) + 1 if len(moved) else 0


@pytest.fixture(scope="module")
def atom_cases(theta_005, kernel201, ql_evaluator, controls1d, ball_2d):
    """(field, evaluator, curve, indices, lam) for a moving and a settled
    curve, in 1D and 2D."""
    dt1 = kernel201.dt
    field2, ev2, controls2, dt2 = ball_2d
    specs = {
        "1d-moving": (theta_005.field, ql_evaluator, controls1d,
                      0.05, 2.0, 120 * dt1, dt1),
        "1d-settled": (theta_005.field, ql_evaluator, controls1d,
                       0.05, 1.0, 40.0, dt1),
        "2d-moving": (field2, ev2, controls2, 0.4, (0.5, 1.5), 1.0, dt2),
        "2d-settled": (field2, ev2, controls2, 0.4, (0.5, 1.5), 12.0, dt2),
    }
    out = {}
    for name, (field, ev, ctrl, lam, z, horizon, dt) in specs.items():
        curve = backtrace(field, ev, ctrl, lam, 0.0, z, horizon, dt)
        ids = compute_indices(curve, ev, field, lam, "kappa")
        out[name] = (field, ev, curve, ids, lam)
    return out


@pytest.mark.parametrize("case", ["1d-moving", "1d-settled", "2d-moving",
                                  "2d-settled"])
def test_atoms_match_the_per_step_measure(atom_cases, case):
    field, ev, curve, ids, lam = atom_cases[case]
    mu = discounted_measure(curve, ids, lam)
    ref = per_step_measure(curve, ids, lam)
    n = curve.segments
    if case.endswith("moving"):
        assert len(mu.weights) == n + 1
    else:
        assert len(mu.weights) < n // 2
    bat = default_battery(curve.points.shape[1])

    def pairings(m):
        vals = [m.pair(lambda p, v, fn=fn: fn(p)) for fn in bat]
        vals.append(m.pair(lambda p, v: ev.legendre(p, v, 0.0)))
        return np.array(vals)

    np.testing.assert_allclose(pairings(mu), pairings(ref), rtol=0,
                               atol=1e-15)
    for fn in (lambda m: closedness_defect(m, bat),
               lambda m: mather_defect(m, ev, 0.0),
               lambda m: selection_functional(m, field, ev),
               lambda m: m.pair(lambda p, v: np.sqrt(np.sum(p ** 2, axis=1)))):
        assert abs(fn(mu) - fn(ref)) <= 1e-15


@pytest.mark.parametrize("case", ["1d-settled", "2d-settled"])
def test_settled_curve_is_its_transient_plus_one_atom(atom_cases, case,
                                                      tmp_path):
    _, _, curve, ids, lam = atom_cases[case]
    mu = discounted_measure(curve, ids, lam)
    k = tail_start(curve)
    assert 0 < k < curve.segments // 2
    assert len(mu.weights) == k + 1
    np.testing.assert_array_equal(mu.points, curve.points[:k + 1])
    np.testing.assert_array_equal(mu.velocities[:k], curve.velocities[:k])
    assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-12
    # the tail atom carries the discount weight of every repeated node
    w = ids.weights(lam)
    assert mu.weights[-1] == pytest.approx(
        float(np.sum(w[k:])) / float(np.sum(w)), rel=1e-12)
    path = tmp_path / "measure.csv"
    write_measure_csv(path, mu)
    assert len(path.read_text().splitlines()) == k + 2  # header + atoms


def test_discounted_measure_rejects_empty_curve():
    curve = Curve(times=np.array([0.0]), points=np.zeros((1, 1)),
                  velocities=np.empty((0, 1)), dt=0.1)
    ids = IndexSeries(kind="kappa", times=np.array([0.0]),
                      values=np.empty(0), cumulative=np.array([0.0]))
    with pytest.raises(ValueError, match="no segments"):
        discounted_measure(curve, ids, 0.1)


# ---------------------------------------------------------------------------
# the three functionals


def test_closedness_defect_vanishes_on_balanced_pairs():
    mu = WeightedSampleMeasure(points=np.zeros((2, 1)),
                               velocities=np.array([[1.0], [-1.0]]),
                               weights=np.array([0.5, 0.5]))
    assert closedness_defect(mu, default_battery(1)) == 0.0


def test_closedness_defect_sees_drift():
    mu = point_mass(0.0, 1.0)  # grad(x) . v = 1
    assert closedness_defect(mu, default_battery(1)) == 1.0


def test_closedness_defect_decays_with_lambda(traced):
    bat = default_battery(1)
    d_01 = closedness_defect(traced[0.1], bat)
    d_005 = closedness_defect(traced[0.05], bat)
    assert d_005 <= 0.1
    assert d_005 < d_01


def test_mather_defect_point_mass(ql_model, ql_evaluator):
    mu = point_mass(2.0, 0.0)
    f2 = 1.0 - math.exp(-4.0)
    assert mather_defect(mu, ql_evaluator, 0.0) == \
        pytest.approx(f2, abs=1e-14)
    assert mather_defect(mu, ql_evaluator, 0.3) == \
        pytest.approx(f2 + 0.3, abs=1e-14)


def test_mather_defect_small_on_traced_measures(traced, ql_model,
                                                ql_evaluator):
    assert mather_defect(traced[0.05], ql_evaluator, 0.0) <= 0.06
    assert mather_defect(traced[0.05], ql_evaluator, 0.0) >= -1e-9


def test_selection_functional_constant_fields(traced, theta_005, ql_model,
                                              ql_evaluator):
    grid = theta_005.field.grid
    zeros = GridField(grid, np.zeros(grid.shape))
    ones = GridField(grid, np.ones(grid.shape))
    mu = traced[0.05]
    assert selection_functional(mu, zeros, ql_evaluator) == 0.0
    # phi = 1 makes du L = -1, so pairing with w = 1 integrates to exactly -1
    assert selection_functional(mu, ones, ql_evaluator) == \
        pytest.approx(-1.0, abs=1e-12)


def test_selection_functional_escaped_support_raises(theta_005, ql_model,
                                                     ql_evaluator):
    mu = point_mass(20.0, 0.0)
    with pytest.raises(DomainError):
        selection_functional(mu, theta_005.field, ql_evaluator)


# ---------------------------------------------------------------------------
# weak-limit diagnostics


def test_weak_limit_needs_two_measures(ql_model, ql_evaluator):
    with pytest.raises(ValueError, match="two measures"):
        weak_limit_diagnostics({0.1: point_mass(0, 0)}, default_battery(1),
                               ql_evaluator)


def test_weak_limit_identical_measures(ql_model, ql_evaluator):
    mus = {0.1: point_mass(1.0, 0.0), 0.05: point_mass(1.0, 0.0)}
    rep = weak_limit_diagnostics(mus, default_battery(1), ql_evaluator)
    assert rep.discrepancies == (0.0,)
    assert rep.cauchy_like
    assert rep.limit_proxy_lambda == 0.05
    assert rep.lambdas == (0.1, 0.05)


def test_weak_limit_contracting_family(ql_model, ql_evaluator):
    # point masses marching toward the origin at geometric speed
    mus = {l: point_mass(l, 0.0) for l in (0.4, 0.2, 0.1, 0.05)}
    rep = weak_limit_diagnostics(mus, default_battery(1), ql_evaluator)
    assert len(rep.discrepancies) == 3
    assert rep.cauchy_like
    js = rep.to_json()
    assert js["lambdas"] == [0.4, 0.2, 0.1, 0.05]
    assert js["limit_proxy_lambda"] == 0.05


# ---------------------------------------------------------------------------
# persistence


def test_measure_csv_roundtrip(tmp_path, traced):
    mu = traced[0.05]
    path = tmp_path / "measure.csv"
    write_measure_csv(path, mu)
    lines = path.read_text().splitlines()
    assert lines[0] == "# x,v,w"
    data = np.loadtxt(path, delimiter=",", comments="#")
    assert data.shape == (len(mu.weights), 3)
    np.testing.assert_array_equal(data[:, 0], mu.points[:, 0])
    np.testing.assert_array_equal(data[:, 2], mu.weights)
