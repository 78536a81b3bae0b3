import math

import numpy as np
import pytest

from contact_hj.grid import DomainError, GridField
from contact_hj.measures import (WeightedSampleMeasure, closedness_defect,
                                 default_battery, discounted_measure,
                                 mather_defect, selection_functional,
                                 weak_limit_diagnostics, write_measure_csv)
from contact_hj.trajectory import Curve, IndexSeries, backtrace, compute_indices


def point_mass(x, v):
    return WeightedSampleMeasure(points=np.array([[float(x)]]),
                                 velocities=np.array([[float(v)]]),
                                 weights=np.array([1.0]))


@pytest.fixture(scope="module")
def traced(theta_01, theta_005, kernel201, ql_evaluator):
    """kappa-weighted measures at z=1 for lam = 0.1 and 0.05."""
    out = {}
    for lam, solve in ((0.1, theta_01), (0.05, theta_005)):
        horizon = max(40.0, math.log(10.0) / lam)
        curve = backtrace(kernel201, solve.field, lam, 0.0, 1.0, horizon)
        ids = compute_indices(curve, ql_evaluator, solve.field, lam)
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


@pytest.mark.parametrize("dim, size", [(1, 5), (2, 11)])
def test_battery_gradients_match_central_differences(dim, size):
    battery = default_battery(dim)
    assert len(battery) == size
    pts = np.random.RandomState(5).uniform(-2.0, 2.0, size=(40, dim))
    h = 1e-6
    for phi, grad in battery:
        assert phi(pts).shape == (40,)
        g = grad(pts)
        assert g.shape == (40, dim)
        for k in range(dim):
            step = np.zeros(dim)
            step[k] = h
            fd = (phi(pts + step) - phi(pts - step)) / (2 * h)
            np.testing.assert_allclose(g[:, k], fd, rtol=1e-6, atol=1e-7)


def test_default_battery_sizes():
    assert len(default_battery(1)) == 5
    assert len(default_battery(2)) == 11
    for _, grad in default_battery(1):
        assert grad(np.array([[0.3]])).shape == (1, 1)


# ---------------------------------------------------------------------------
# discounted measures from curves


def test_discounted_measure_geometric_weights(theta_005, kernel201,
                                              ql_evaluator):
    # stationary curve at the well: indices are -1, so the per-step weights
    # are an exact geometric sequence and the measure is one atom
    lam = 0.05
    dt = kernel201.dt
    curve = backtrace(kernel201, theta_005.field, lam, 0.0, 0.0, 10.0)
    ids = compute_indices(curve, ql_evaluator, theta_005.field, lam)
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
def atom_cases(theta_005, kernel201, ball_2d):
    """(field, evaluator, curve, indices, lam) for a moving and a settled
    curve, in 1D and 2D."""
    field2, kernel2 = ball_2d
    specs = {
        "1d-moving": (kernel201, theta_005.field, 0.05, 2.0,
                      120 * kernel201.dt),
        "1d-settled": (kernel201, theta_005.field, 0.05, 1.0, 40.0),
        "2d-moving": (kernel2, field2, 0.4, (0.5, 1.5), 1.0),
        "2d-settled": (kernel2, field2, 0.4, (0.5, 1.5), 12.0),
    }
    out = {}
    for name, (kernel, field, lam, z, horizon) in specs.items():
        ev = kernel.evaluator
        curve = backtrace(kernel, field, lam, 0.0, z, horizon)
        ids = compute_indices(curve, ev, field, lam)
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
        vals = [m.pair(lambda p, v, phi=phi: phi(p)) for phi, _ in bat]
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
    ids = IndexSeries(values=np.empty(0), cumulative=np.array([0.0]))
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
    rows = weak_limit_diagnostics(mus, default_battery(1), ql_evaluator)
    assert rows == [(0.1, 0.05, 0.0)]


def test_weak_limit_contracting_family(ql_model, ql_evaluator):
    # point masses marching toward the origin at geometric speed
    mus = {l: point_mass(l, 0.0) for l in (0.4, 0.2, 0.1, 0.05)}
    rows = weak_limit_diagnostics(mus, default_battery(1), ql_evaluator)
    assert [(a, b) for a, b, _ in rows] == [(0.4, 0.2), (0.2, 0.1),
                                            (0.1, 0.05)]
    gaps = [d for _, _, d in rows]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


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
