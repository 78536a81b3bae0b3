"""Desk-scale acceptance gate for the shipped solvers and experiment drivers.

One test per shipped target, each ending in a single PASS/FAIL print with the
measured numbers. Targets the scheme cannot meet at this resolution and
discount schedule are strict xfails asserting the advertised bound verbatim,
with the quantified shortfall in the reason string; if a resolution change
ever flips one, the xpass fails the suite and forces a review.
"""

import glob
import json
import math
import os
import time

import numpy as np
import pytest

from conftest import quadrature_mane, window_residual
from contact_hj.experiments import (ExperimentConfig, builtin_models,
                                    localization_study, measure_study,
                                    run_assumption_check,
                                    vanishing_discount_sweep)
from contact_hj.grid import Domain, GridField, UniformGrid
from contact_hj.solver import (SweepKernel, aubry_indicator,
                               estimate_critical_value, lax_oleinik_step,
                               mane_potential, solve_maximal_global)
from contact_hj.trajectory import backtrace, compute_indices

QL_MODEL = {"dim": 1, "kinetic": {"type": "quadratic"},
            "potential": "1 - exp(-x^2)",
            "coupling": {"type": "linear", "phi": "1",
                         "bounds": {"kappa_lo": 1.0, "kappa_hi": 1.0}}}


def _say(ok, label, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")


def _verdict(report, name):
    for v in report.verdicts:
        if v["name"] == name:
            return v
    raise AssertionError(f"driver lost the {name!r} verdict")


@pytest.fixture(scope="module")
def accept_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def sweep_report(accept_dir):
    # the full shipped discount schedule on the 201-node grid; the truncation
    # ball (radius 8 from the radii schedule) and the [-3, 3] window are the
    # driver defaults
    cfg = ExperimentConfig.from_dict({
        "name": "accept-sweep", "model": QL_MODEL, "c": 0.0,
        "grid": {"box": [[-10.0, 10.0]], "shape": [201]},
        "lambdas": [0.2, 0.1, 0.05, 0.025],
        "probes": [0.0, 1.0],
        "solver": {"tol": 1e-7},
        "outdir": str(accept_dir)})
    run = accept_dir / "sweep"
    run.mkdir()
    return vanishing_discount_sweep(cfg, run_dir=str(run))


@pytest.fixture(scope="module")
def mane_pool(kernel401, params_tight, mane401):
    pool = {0.0: mane401}
    for pin in (1.0, -2.0):
        pool[pin] = mane_potential(kernel401, pin, 0.0, params_tight)
    return pool


def test_critical_value_recovery_and_radius_monotonicity(
        ql_evaluator, controls1d, kernel401, params_fast):
    t0 = time.monotonic()
    est = estimate_critical_value(kernel401, (0.2, 0.1), params_fast)
    elapsed = time.monotonic() - t0
    assert -0.02 <= est.richardson <= 0.02
    assert elapsed <= 60.0

    # constrained-ball estimates must not decrease when the ball shrinks
    ball = {}
    for radius in (3.0, 6.0):
        half = radius + 2.0
        n = int(round(2 * half * 20)) + 1
        grid = UniformGrid(Domain.ball(((-half, half),), radius), (n,))
        ball[radius] = estimate_critical_value(
            SweepKernel(grid, ql_evaluator, controls1d), (0.2, 0.1),
            params_fast).richardson
    assert ball[3.0] <= ball[6.0] + 0.01
    _say(True, "critical value",
         f"c_est={est.richardson:.3g} in +-0.02, {elapsed:.1f}s <= 60s, "
         f"c(R=3)={ball[3.0]:.3g} <= c(R=6)={ball[6.0]:.3g} + 0.01")


def test_pinned_semidistance_quadrature_and_triangle(grid401, mane_pool):
    field = mane_pool[0.0]
    xs = np.linspace(-3.0, 3.0, 601)
    sup = float(np.max(np.abs(np.asarray(field.interpolate(xs[:, None]))
                              - quadrature_mane(xs))))
    assert sup <= 5e-2

    pin_node = grid401.nearest_node(0.0)
    assert field.values[pin_node] == 0.0

    # triangle inequality over random (x, y, z) with pinned y/z; slack is
    # twice the certified sup-norm error above
    pins = sorted(mane_pool)
    rng = np.random.RandomState(20260815)
    worst = -np.inf
    for _ in range(100):
        x = rng.uniform(-6.0, 6.0)
        y = pins[rng.randint(len(pins))]
        z = pins[rng.randint(len(pins))]
        s_zx = float(np.asarray(mane_pool[z].interpolate(x)).reshape(-1)[0])
        s_yx = float(np.asarray(mane_pool[y].interpolate(x)).reshape(-1)[0])
        s_zy = float(np.asarray(mane_pool[z].interpolate(y)).reshape(-1)[0])
        worst = max(worst, s_zx - s_yx - s_zy)
    assert worst <= 2 * 5e-2
    _say(True, "pinned semi-distance",
         f"quadrature sup {sup:.3g} <= 5e-2, S(0,0)=0 exact, "
         f"triangle excess {worst:.3g} <= 0.1 on 100 triples")


def test_aubry_indicator_separates_the_well_bottom(kernel201, params_fast):
    samples = [0.0, -3.0, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 3.0]
    delta = aubry_indicator(kernel201, 0.0, samples, params_fast)
    dt = kernel201.dt
    assert delta[0] <= 5e-3
    assert np.min(delta) >= -1e-12
    off = float(np.min(delta[1:]))
    assert off >= 0.1 * dt
    _say(True, "aubry indicator",
         f"delta(0)={delta[0]:.3g} <= 5e-3, min off-bottom "
         f"{off / dt:.2f}*dt >= 0.1*dt")


@pytest.mark.xfail(strict=True, reason=(
    "the window Cauchy tail at the shipped discount schedule bottoms out "
    "near 0.082: the final difference scales like the schedule's last gap "
    "times the window action slope (~3.3 at the window edge), so 2e-2 needs "
    "discounts below ~0.006, not the shipped 0.025"))
def test_discount_chain_window_cauchy_tail(sweep_report):
    diffs = [row[2] for row in sweep_report.tables["cauchy"]["rows"]]
    _say(diffs[-1] <= 2e-2, "window cauchy tail",
         f"final diff {diffs[-1]:.4g} vs 2e-2")
    assert diffs[-1] <= 2e-2


@pytest.mark.xfail(strict=True, reason=(
    "max|lam*u| on the window tracks lam times the semi-distance at the "
    "window edge, ~0.025*3.354 = 0.084 at the schedule bottom; a 1e-2 "
    "ceiling needs lam below ~0.003"))
def test_discount_chain_lambda_u_decay_floor(sweep_report):
    norms = [row[1] for row in sweep_report.tables["lambda_norm"]["rows"]]
    _say(norms[-1] <= 1e-2, "lambda*u ceiling",
         f"final max|lam*u| {norms[-1]:.4g} vs 1e-2")
    assert norms[-1] <= 1e-2


def test_discount_chain_monotone_and_limit_proxy(sweep_report):
    for row in sweep_report.tables["solves"]["rows"]:
        assert row[3], f"solve at lam={row[0]} did not converge"
    assert _verdict(sweep_report, "cauchy_monotone")["passed"]
    assert _verdict(sweep_report, "lambda_u_decreasing")["passed"]
    res = _verdict(sweep_report, "proxy_ergodic_residual")["observed"]
    assert res <= 5 * 1e-7
    gap = _verdict(sweep_report, "proxy_matches_mane")["observed"]
    assert gap <= 5e-2
    origin = _verdict(sweep_report, "proxy_origin")["observed"]
    assert abs(origin) <= 2e-2
    for row in sweep_report.tables["selection"]["rows"]:
        assert row[4] == "ok"
    _say(True, "limit proxy",
         f"chain monotone, proxy residual {res:.3g} <= 5*tol, vs pinned "
         f"semi-distance {gap:.3g} <= 5e-2, proxy(0)={origin:.3g}")


@pytest.mark.xfail(strict=True, reason=(
    "the selection functional against a traced measure inherits that "
    "measure's closedness defect, O(lam) + O(dx); the worst cell sits at the "
    "largest scheduled discount (-0.060 at lam=0.2, z=1) and cannot clear "
    "-1e-2 without dropping large discounts from the schedule"))
def test_selection_functional_floor_on_traced_measures(sweep_report):
    values = [row[2] for row in sweep_report.tables["selection"]["rows"]
              if row[4] == "ok"]
    worst = min(values)
    _say(worst >= -1e-2, "selection floor", f"worst {worst:.4g} vs -1e-2")
    assert worst >= -1e-2


def test_truncation_localizes_at_the_well_bottom(accept_dir):
    cfg = ExperimentConfig.from_dict({
        "name": "accept-localize", "model": QL_MODEL, "c": 0.0,
        "grid": {"box": [[-10.0, 10.0]], "shape": [201]},
        "lambdas": [0.2, 0.1, 0.05], "radii": [4.0, 5.0, 6.0],
        "probes": [0.0], "solver": {"tol": 1e-7},
        "outdir": str(accept_dir)})
    run = accept_dir / "localize"
    run.mkdir()
    report = localization_study(cfg, z=0.0, run_dir=str(run))
    rows = report.tables["gaps"]["rows"]
    assert all(row[5] == "ok" for row in rows)
    assert _verdict(report, "comparison_sign")["passed"]
    small = [abs(row[4]) for row in rows if row[0] == 0.05]
    assert len(small) == 3
    assert max(small) <= 1e-3
    seconds = report.runtime["seconds"]
    assert seconds <= 300.0
    _say(True, "localization",
         f"all 9 cells signed >= -2*tol, max |gap| at lam=0.05 "
         f"{max(small):.3g} <= 1e-3, {seconds:.0f}s <= 300s")


def test_measure_defect_decay_and_index_signs(
        accept_dir, ql_evaluator, controls1d, kernel201, params_fast,
        theta_005):
    cfg = ExperimentConfig.from_dict({
        "name": "accept-measures", "model": QL_MODEL, "c": 0.0,
        "grid": {"box": [[-10.0, 10.0]], "shape": [201]},
        "lambdas": [0.1, 0.05, 0.025], "probes": [0.0, 1.0],
        "solver": {"tol": 1e-7}, "outdir": str(accept_dir)})
    run = accept_dir / "measures"
    run.mkdir()
    report = measure_study(cfg, run_dir=str(run))

    exponent = _verdict(report, "closedness_exponent")
    assert exponent["passed"]
    assert all(0.7 <= s <= 1.3 for s in exponent["observed"])
    mather = _verdict(report, "mather_final")["observed"]
    assert mather <= 5e-2

    # every written measure is normalized to machine precision
    paths = sorted(glob.glob(str(run / "measure_lam*.csv")))
    assert len(paths) == 6
    for path in paths:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        assert abs(float(np.sum(data[:, 2])) - 1.0) <= 1e-12

    # index series along one shared curve: always nonpositive, and the
    # shifted-reference index on the maximal-proxy field dominates the one on
    # the constrained field (exact equality for this affine coupling)
    curve = backtrace(kernel201, theta_005.field, 0.05, 0.0, 1.0, 30.0)
    maximal = solve_maximal_global(ql_evaluator, controls1d, 0.05, 0.0,
                                   (4.0, 6.0, 8.0), 1.0, params_fast,
                                   box=((-10.0, 10.0),), shape=(201,))
    series = {}
    for name, field, c0 in (("kappa", theta_005.field, 0.0),
                            ("K", maximal.field, 0.0),
                            ("k_bold", theta_005.field, 1.0),
                            ("K_bold", maximal.field, 1.0)):
        series[name] = compute_indices(curve, ql_evaluator, field,
                                       0.05, c0=c0)
        assert float(np.max(series[name].values)) <= 1e-12
    dominance = float(np.min(series["K_bold"].values
                             - series["k_bold"].values))
    assert dominance >= -1e-12
    _say(True, "measures",
         f"decay exponent {exponent['observed']} in [0.7, 1.3], mather "
         f"{mather:.3g} <= 5e-2 at lam=0.025, 6 measures normalized to "
         f"1e-12, indices <= 0, shifted-index dominance {dominance:.1g}")


def test_scheme_monotonicity_dpp_windows_and_curvewise_bound(
        ql_evaluator, controls1d, grid201, kernel201, theta_005, ergodic201):
    dt = kernel201.dt

    # monotonicity: ordered inputs stay ordered through one sweep
    rng = np.random.RandomState(7)
    worst_mono = np.inf
    for _ in range(50):
        v1 = rng.uniform(-3.0, 3.0, grid201.size)
        v2 = v1 - rng.uniform(0.0, 2.0, grid201.size)
        t1 = lax_oleinik_step(kernel201, GridField(grid201, v1), 0.1, 0.0)
        t2 = lax_oleinik_step(kernel201, GridField(grid201, v2), 0.1, 0.0)
        worst_mono = min(worst_mono, float(np.min(t1.values - t2.values)))
    assert worst_mono >= -1e-12

    # weighted window identity along traced curves
    worst_win = 0.0
    for z in (1.0, 2.0):
        curve = backtrace(kernel201, theta_005.field, 0.05, 0.0, z, 20.0)
        idx = compute_indices(curve, ql_evaluator, theta_005.field, 0.05)
        n = curve.segments
        for _ in range(15):
            j_hi = rng.randint(0, n - 1)
            j_lo = rng.randint(j_hi + 1, n + 1)
            res = window_residual(theta_005.field, curve, idx, ql_evaluator,
                                  0.05, 0.0, j_hi, j_lo)
            bound = 10.0 * (1e-7 + curve.defect_max) * (j_lo - j_hi)
            worst_win = max(worst_win, res / bound)
            assert res <= bound

    # curve-wise lower bound: the settled field never beats the running cost
    # of any admissible curve by more than twice the certified field error
    u = ergodic201.field
    f = lambda x: 1.0 - np.exp(-np.square(x))
    worst_curve = -np.inf
    for _ in range(100):
        x = rng.uniform(-4.0, 4.0)
        n_steps = rng.randint(60, 300)
        start = x
        action = 0.0
        for _ in range(n_steps):
            a = rng.uniform(-6.0, 6.0)
            if abs(x + dt * a) > 8.0:
                a = -a
            x_next = x + dt * a
            action += dt * (0.5 * a * a + 0.5 * (f(x) + f(x_next)))
            x = x_next
        u_end = float(np.asarray(u.interpolate(x)).reshape(-1)[0])
        u_start = float(np.asarray(u.interpolate(start)).reshape(-1)[0])
        worst_curve = max(worst_curve, u_end - u_start - action)
    assert worst_curve <= 2 * 5e-2
    _say(True, "scheme properties",
         f"monotone to {worst_mono:.1e} on 50 pairs, window identity at "
         f"{worst_win:.2f} of its bound over 30 windows, curve-wise excess "
         f"{worst_curve:.3g} <= 0.1 on 100 curves")


def test_arctan_preset_end_to_end(accept_dir):
    cfg = ExperimentConfig.from_dict({**builtin_models()["arctan"].to_dict(),
                                      "outdir": str(accept_dir)})
    check = run_assumption_check(cfg)
    status = {c["name"]: c["status"] for c in check["report"]["checks"]}
    assert status["H3"] == "verified-on-samples"
    assert status["H4"] == "violated"
    assert status["P2"] == "violated"
    assert check["passed"]

    run = accept_dir / "arctan"
    run.mkdir()
    report = vanishing_discount_sweep(cfg, run_dir=str(run))
    for row in report.tables["solves"]["rows"]:
        assert row[3], f"arctan solve at lam={row[0]} did not converge"
    assert _verdict(report, "cauchy_monotone")["passed"]
    diffs = [row[2] for row in report.tables["cauchy"]["rows"]]
    assert diffs[-1] <= 5e-2
    for row in report.tables["selection"]["rows"]:
        assert row[4] == "ok"
    _say(True, "arctan preset",
         f"assumption split as advertised, chain converged, cauchy diffs "
         f"{[round(d, 4) for d in diffs]} decreasing with final <= 5e-2")


def test_repeated_runs_give_identical_artifacts(tmp_path):
    base = {"name": "accept-deterministic", "model": QL_MODEL, "c": 0.0,
            "grid": {"box": [[-10.0, 10.0]], "shape": [101]},
            "lambdas": [0.2, 0.1], "radii": [3.0, 4.0],
            "probes": [0.0, 1.0], "solver": {"tol": 1e-6},
            "outdir": str(tmp_path)}

    def payloads(run_dir):
        names = {}
        for path in glob.glob(os.path.join(run_dir, "*")):
            if path.endswith(".csv"):
                with open(path, "rb") as fh:
                    names[os.path.basename(path)] = fh.read()
        return names

    compared = 0
    for label, runner in (("localize",
                           lambda c, d: localization_study(c, z=0.0,
                                                           run_dir=d)),
                          ("measures",
                           lambda c, d: measure_study(c, run_dir=d))):
        got = {}
        for attempt in (1, 2):
            run = tmp_path / f"{label}-run{attempt}"
            run.mkdir()
            cfg = ExperimentConfig.from_dict(base)
            runner(cfg, str(run))
            got[attempt] = payloads(str(run))
        assert sorted(got[1]) == sorted(got[2])
        assert got[1], f"{label} wrote no tabular artifacts"
        for name in got[1]:
            assert got[1][name] == got[2][name], \
                f"{label}/{name} differs between two runs"
        compared += len(got[1])
    _say(True, "determinism",
         f"{compared} artifacts byte-identical between two runs")
