import copy
import dataclasses
import importlib.util
import json
import os
import re

import numpy as np
import pytest

from contact_hj import experiments
from contact_hj.experiments import (ConfigError, ExperimentConfig, _guard,
                                    builtin_models, localization_study,
                                    make_run_dir, measure_study,
                                    read_config_file, run_assumption_check,
                                    vanishing_discount_sweep)
from contact_hj.grid import GridField
from contact_hj.hamiltonian import (ExtentError, HamiltonianModel,
                                    LagrangianEvaluator)
from contact_hj.solver import (SweepKernel, aubry_indicator,
                               solve_state_constraint)

QL_MODEL = {"dim": 1, "kinetic": {"type": "quadratic"},
            "potential": "1 - exp(-x^2)",
            "coupling": {"type": "linear", "phi": "1",
                         "bounds": {"kappa_lo": 1.0, "kappa_hi": 1.0}}}


def coarse(tmp_path, **over):
    data = {"name": "coarse", "model": QL_MODEL, "c": 0.0,
            "grid": {"box": [[-10.0, 10.0]], "shape": [101]},
            "lambdas": [0.2, 0.1], "radii": [3.0, 4.0, 5.0],
            "probes": [0.0, 1.0], "horizon": 20.0,
            "solver": {"tol": 1e-6}, "outdir": str(tmp_path)}
    data.update(over)
    return ExperimentConfig.from_dict(data)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        coarse(tmp_path, bogus=1)
    with pytest.raises(ConfigError, match="grid.'boxx'"):
        coarse(tmp_path, grid={"boxx": [[-1, 1]]})
    with pytest.raises(ConfigError, match="solver.'tolerance'"):
        coarse(tmp_path, solver={"tolerance": 1e-6})
    with pytest.raises(ConfigError, match="controls.'speed'"):
        coarse(tmp_path, controls={"speed": 2.0})


def test_config_rejects_bad_schedules(tmp_path):
    with pytest.raises(ConfigError, match="strictly decreasing"):
        coarse(tmp_path, lambdas=[0.1, 0.2])
    with pytest.raises(ConfigError, match="positive"):
        coarse(tmp_path, lambdas=[0.1, -0.05])
    with pytest.raises(ConfigError, match="strictly increasing"):
        coarse(tmp_path, radii=[3.0, 3.0])
    with pytest.raises(ConfigError, match="does not match model dim"):
        coarse(tmp_path, probes=[[0.0, 1.0]])


def test_config_rejects_bad_model():
    with pytest.raises(ConfigError, match="needs a 'model'"):
        ExperimentConfig.from_dict({"name": "x"})
    with pytest.raises(ConfigError, match="bad model descriptor"):
        ExperimentConfig.from_dict({"model": {"dim": 1,
                                              "kinetic": {"type": "cubic"},
                                              "potential": "0"}})


def test_config_stores_validated_numbers(tmp_path):
    # numeric strings and booleans pass _number; the config keeps its floats
    cfg = coarse(tmp_path, probes=[["1"], [True]],
                 grid={"box": [["-10", 10]], "shape": [101]})
    assert cfg.probes == ((1.0,), (1.0,))
    assert cfg.grid["box"] == [[-10.0, 10.0]]
    assert all(type(v) is float for v in cfg.probes[0] + cfg.probes[1]
               + tuple(cfg.grid["box"][0]))


@pytest.mark.parametrize("bounds", [None, {"kappa_low": 1.0},
                                    {"kappa_lo": 5.0, "kappa_hi": 9.0}, 3])
def test_coupling_bounds_are_ignored(tmp_path, bounds):
    # kappa_lo comes from phi on the kernel's nodes, whatever bounds say
    coupling = {"type": "linear", "phi": "1"}
    if bounds is not None:
        coupling["bounds"] = bounds
    cfg = coarse(tmp_path, model={**QL_MODEL, "coupling": coupling})
    assert cfg == coarse(tmp_path)
    assert "bounds" not in json.dumps(cfg.model)
    kernel = experiments.setup(cfg)
    assert kernel.kappa_lo == 1.0
    assert cfg.trace_horizon(0.025, kernel.kappa_lo) == pytest.approx(
        np.log(10.0) / 0.025)


def test_vanishing_phi_override_gets_no_contraction_margin():
    # phi = x^2 vanishes at the well: kappa_lo is 0, gain 1, and the
    # error bound is the residual
    data = builtin_models()["quadratic-linear"].to_dict()
    data["model"]["coupling"]["phi"] = "x^2"
    data["lambdas"] = [0.2]
    cfg = ExperimentConfig.from_dict(data)
    kernel = experiments.setup(cfg)
    assert kernel.kappa_lo == 0.0
    assert cfg.trace_horizon(0.2, kernel.kappa_lo) == 40.0
    out = solve_state_constraint(kernel, 0.2, 0.0, cfg.build_params())
    assert out.converged
    assert out.extras["error_bound"] == out.final_residual


@pytest.mark.parametrize("phi,shape", [("x^2", 400), ("(x - 0.33)^2", 401),
                                       ("x^2 + 1e-6", 400)])
def test_phi_vanishing_between_nodes_keeps_the_base_horizon(phi, shape):
    # no node sits at phi's zero, so the node minimum is small but positive:
    # the sweep keeps it as its exact margin, while the traces, which read
    # phi between nodes, take none and keep the 40 horizon
    data = builtin_models()["quadratic-linear"].to_dict()
    data["model"]["coupling"]["phi"] = phi
    data["grid"]["shape"] = [shape]
    cfg = ExperimentConfig.from_dict(data)
    kernel = experiments.setup(cfg)
    assert 0.0 < kernel.kappa_lo < 1e-3
    assert kernel.trace_kappa == 0.0
    assert cfg.trace_horizon(0.025, kernel.trace_kappa) == 40.0


def test_config_defaults():
    cfg = ExperimentConfig.from_dict({"model": QL_MODEL})
    assert cfg.grid["box"] == [[-10.0, 10.0]]
    assert cfg.grid["shape"] == [401]
    assert cfg.lambdas == (0.2, 0.1, 0.05, 0.025)
    assert cfg.probes == ((0.0,), (1.0,))
    assert cfg.window == ((-3.0, 3.0),)
    assert cfg.gap_tol == 1e-3
    assert cfg.solver["tol"] == 1e-8
    assert cfg.horizon is None


def test_config_roundtrip(tmp_path):
    cfg = coarse(tmp_path)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def _shipped_configs():
    """Every preset, then every perfbench workload config, full and toy,
    with its first probe set."""
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = dict(builtin_models())
    for name in workloads.WORKLOADS:
        probes = workloads.probe_sets(name)[0]
        for toy, size in ((False, "full"), (True, "toy")):
            data = workloads.build_config(name, probes, toy)
            configs[f"{name}-{size}"] = ExperimentConfig.from_dict(data)
    return configs


def _scribble(node):
    """Overwrite every value held in node's dicts and lists, in place."""
    for key in list(node) if isinstance(node, dict) else range(len(node)):
        if isinstance(node[key], (dict, list)):
            _scribble(node[key])
        else:
            node[key] = "scribbled"


SHIPPED = _shipped_configs()


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_to_dict_is_a_copy_that_round_trips(name):
    cfg = SHIPPED[name]
    kept = copy.deepcopy(cfg)
    _scribble(cfg.to_dict())
    assert cfg == kept
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"model": QL_MODEL, "lambdas": [0.1, 0.05]}))
    cfg = ExperimentConfig.from_dict(read_config_file(path))
    assert cfg.lambdas == (0.1, 0.05)
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_dict(read_config_file(bad))
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_dict(
            read_config_file(tmp_path / "missing.json"))


def test_config_builders(tmp_path):
    cfg = coarse(tmp_path)
    model = cfg.build_model()
    assert model.dim == 1
    grid = cfg.build_grid()
    assert grid.shape == (101,)
    ball = cfg.build_grid(7.0)
    assert not bool(ball.mask[0])  # corners cut off
    assert ball.shape == grid.shape and ball.dx == grid.dx
    assert cfg.build_params().tol == 1e-6
    assert cfg.build_controls(1).max_speed == 6.0
    # horizon rule: the configured floor or the tail-weight bound
    assert cfg.trace_horizon(0.2, 1.0) == pytest.approx(20.0)
    assert cfg.trace_horizon(0.05, 1.0) == pytest.approx(
        np.log(10.0) / 0.05)
    deflt = ExperimentConfig.from_dict({"model": QL_MODEL})
    assert deflt.trace_horizon(0.2, 1.0) == pytest.approx(40.0)


def test_make_run_dir_with_stamp(tmp_path):
    d1 = make_run_dir(tmp_path, "sweep", stamp="fixed")
    assert d1 == os.path.join(tmp_path, "sweep", "fixed")
    assert os.path.isdir(d1)
    assert make_run_dir(tmp_path, "sweep", stamp="fixed") == d1


# ---------------------------------------------------------------------------
# drivers at desk scale


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = coarse(tmp)
    run_dir = os.path.join(tmp, "run")
    report = vanishing_discount_sweep(cfg, run_dir=run_dir)
    return report, run_dir


def test_sweep_verdict_roster(sweep_report):
    report, _ = sweep_report
    names = {v["name"] for v in report.verdicts}
    assert names == {"cauchy_monotone", "cauchy_final",
                     "lambda_u_decreasing", "lambda_u_final",
                     "proxy_ergodic_residual", "proxy_matches_mane",
                     "proxy_origin", "selection_nonnegative"}
    for v in report.verdicts:
        assert v["table"] in report.tables or v["table"] == "solves"


def test_sweep_limit_proxy_behaviour(sweep_report):
    report, _ = sweep_report
    assert report.verdict("proxy_matches_mane")["passed"]
    assert report.verdict("proxy_origin")["passed"]
    assert report.verdict("proxy_ergodic_residual")["passed"]
    # two lambdas only: the remaining verdicts exist but carry real numbers
    assert report.verdict("cauchy_final")["observed"] > 0.0


def test_sweep_tables_and_artifacts(sweep_report):
    report, run_dir = sweep_report
    assert set(report.tables) == {"solves", "cauchy", "lambda_norm",
                                  "limit_proxy", "selection", "profiles"}
    assert len(report.tables["solves"]["rows"]) == 2
    assert all(row[3] for row in report.tables["solves"]["rows"])  # converged
    assert len(report.tables["selection"]["rows"]) == 4
    for row in report.tables["selection"]["rows"]:
        assert row[4] == "ok"
    for name in ("solves", "cauchy", "profiles"):
        assert os.path.exists(os.path.join(run_dir, f"{name}.csv"))
    # tables are written as .csv and inside report.json only
    assert not [f for f in os.listdir(run_dir) if f.endswith(".dat")]
    for fname in ("field_lam0.2.csv", "field_lam0.1.csv",
                  "limit_proxy_field.csv", "mane_field.csv", "report.json"):
        assert os.path.exists(os.path.join(run_dir, fname))
    with open(os.path.join(run_dir, "report.json")) as fh:
        js = json.load(fh)
    assert js["experiment"] == "vanishing_discount"
    assert js["runtime"]["cells"] == 4


def test_localization_records_cell_errors(tmp_path):
    cfg = coarse(tmp_path, radii=[0.5, 3.0, 4.0, 5.0])
    run_dir = os.path.join(tmp_path, "run")
    report = localization_study(cfg, z=1.0, run_dir=run_dir)
    rows = report.tables["gaps"]["rows"]
    assert len(rows) == 8
    # probing z=1 on the R=0.5 ball escapes the mask: recorded, not raised
    bad = [r for r in rows if r[1] == 0.5]
    assert len(bad) == 2
    for r in bad:
        assert r[5].startswith("DomainError")
        assert r[2] == "nan"
    good = [r for r in rows if r[1] != 0.5]
    assert all(r[5] == "ok" for r in good)
    assert report.verdict("comparison_sign")["passed"]
    assert report.verdict("plateau_detected")["passed"]
    assert any(n.startswith("empirical lambda_z") for n in report.notes)
    assert os.path.exists(os.path.join(run_dir, "gaps.csv"))
    assert os.path.exists(os.path.join(run_dir, "plateau.csv"))
    assert os.path.exists(os.path.join(run_dir, "truncated.csv"))


def test_localization_gap_shrinks_with_radius(tmp_path):
    cfg = coarse(tmp_path, lambdas=[0.1])
    report = localization_study(cfg, z=1.0,
                                run_dir=os.path.join(tmp_path, "run"))
    rows = report.tables["gaps"]["rows"]
    gaps = [abs(r[4]) for r in rows]
    assert gaps[-1] <= cfg.gap_tol
    plateau = report.tables["plateau"]["rows"]
    assert plateau[0][1] != "none"


def test_2d_drivers_run_every_cell(tmp_path):
    model = dict(QL_MODEL, dim=2, potential="1 - exp(-(x^2 + y^2))")
    cfg = coarse(tmp_path, model=model,
                 grid={"box": [[-6.0, 6.0]] * 2, "shape": [21, 21]},
                 lambdas=[0.4, 0.2], radii=[2.0, 3.0],
                 probes=[[0.0, 0.0], [0.5, -0.5]], horizon=4.0,
                 window=[[-1.0, 1.0]] * 2, controls={"da": 1.0})
    loc = localization_study(cfg, run_dir=os.path.join(tmp_path, "loc"))
    assert [r[5] for r in loc.tables["gaps"]["rows"]] == ["ok"] * 4
    sweep = vanishing_discount_sweep(cfg,
                                     run_dir=os.path.join(tmp_path, "sweep"))
    assert [r[4] for r in sweep.tables["selection"]["rows"]] == ["ok"] * 4


def _quadratic_2d_41(tmp_path):
    model = dict(QL_MODEL, dim=2, potential="1 - exp(-(x^2 + y^2))")
    return coarse(tmp_path, model=model,
                  grid={"box": [[-6.0, 6.0]] * 2, "shape": [41, 41]},
                  lambdas=[0.4, 0.2], radii=[2.0, 3.0], probes=[[1.0, 0.0]],
                  controls={"da": 1.0})


def test_2d_localization_gaps_are_round_off_where_balls_hold_the_path(
        tmp_path):
    # from (1, 0) the minimizing path runs to the origin inside every ball,
    # so on one lattice theta_R and the truncated u agree to round-off
    cfg = _quadratic_2d_41(tmp_path)
    report = localization_study(cfg, run_dir=str(tmp_path / "run"))
    assert report.verdict("comparison_sign")["passed"]
    rows = report.tables["gaps"]["rows"]
    assert [r[5] for r in rows] == ["ok"] * 4
    assert max(abs(r[4]) for r in rows) <= 1e-13


@pytest.mark.parametrize("make", [
    lambda tmp: coarse(tmp, probes=[1.0]), _quadratic_2d_41],
    ids=["1d", "2d"])
def test_localize_reads_sweeps_truncated_field(tmp_path, make):
    cfg = make(tmp_path)
    report = localization_study(cfg, run_dir=str(tmp_path / "run"))
    at_z = np.array([cfg.probes[0]])
    kernel = experiments.truncation_kernel(cfg)
    assert kernel.grid.shape == cfg.build_grid().shape
    assert [row[2] for row in report.tables["truncated"]["rows"]] == [
        float(out.field.interpolate(at_z)[0])
        for _, out in experiments.discount_chain(kernel, cfg)]


def test_truncation_ball_must_fit_the_box(tmp_path):
    # dx = 0.2 on [-10, 10]: a radius-9.9 ball leaves no spare cell
    for cfg, key in ((coarse(tmp_path, truncation_radius=9.9),
                      "truncation_radius"),
                     (coarse(tmp_path, radii=[3.0, 7.9]), "radii")):
        for driver in (vanishing_discount_sweep, localization_study):
            with pytest.raises(ConfigError, match=f"'{key}' sets a "
                               "truncation ball of radius 9.9"):
                driver(cfg, run_dir=str(tmp_path / "run"))


def test_guard_records_extent_errors():
    # tabulated p^2/2 on [0, 1]: speeds beyond 1 push the maximizer out
    model = HamiltonianModel.from_json(dict(
        QL_MODEL, kinetic={"type": "tabulated", "dp": 0.1,
                           "values": [0.5 * (0.1 * k) ** 2
                                      for k in range(11)]}))
    ev = LagrangianEvaluator(model)
    cells = {s: _guard(lambda v: ev.legendre(0.0, v, 0.0), s)
             for s in (0.5, 3.0)}
    assert cells[0.5][0] == "ok"
    status, payload = cells[3.0]
    assert status == "error"
    assert payload.startswith("ExtentError")


def test_localization_validates_truncation_radius(tmp_path):
    cfg = coarse(tmp_path, truncation_radius=4.0)
    with pytest.raises(ConfigError, match="truncation radius"):
        localization_study(cfg, z=0.0,
                           run_dir=os.path.join(tmp_path, "run"))


def _localize_recording(monkeypatch, cfg, run_dir, fail=None, stall=None):
    """localization_study with every ball solve recorded as (lam, R, kernel,
    warm-started?, iterations); fail=(lam, R) makes that cell's solve raise,
    stall=(lam, R) makes it return unconverged.
    """
    real = experiments.solve_state_constraint
    calls = []

    def recording(kernel, lam, c, params, v0=None):
        radius = kernel.grid.domain.radius
        if (lam, radius) == fail:
            raise experiments.SolverError("planted failure")
        out = real(kernel, lam, c, params, v0=v0)
        if (lam, radius) == stall:
            out = dataclasses.replace(out, converged=False)
        if radius in cfg.radii:
            calls.append((lam, radius, kernel, v0 is not None,
                          out.iterations))
        return out

    monkeypatch.setattr(experiments, "solve_state_constraint", recording)
    report = localization_study(cfg, run_dir=run_dir)
    monkeypatch.undo()
    return report, calls


def _cold_gap_rows(cfg, report, calls):
    """The gaps rows from cold solves on the recorded ball kernels, and
    their total policy iterations."""
    at_z = np.array([cfg.probes[0]])
    u_z = {row[0]: row[2] for row in report.tables["truncated"]["rows"]}
    rows, iterations = [], 0
    for lam, radius, kernel, _, _ in calls:
        out = experiments.solve_state_constraint(kernel, lam, cfg.c,
                                                 cfg.build_params())
        iterations += out.iterations
        theta = float(out.field.interpolate(at_z)[0])
        rows.append([lam, radius, theta, u_z[lam], theta - u_z[lam], "ok"])
    return rows, iterations


def test_localization_warm_starts_each_radius_along_the_schedule(
        tmp_path, monkeypatch):
    cfg = coarse(tmp_path, lambdas=[0.4, 0.2, 0.1], probes=[1.0])
    report, calls = _localize_recording(monkeypatch, cfg,
                                        str(tmp_path / "run"))
    assert [(lam, r) for lam, r, *_ in calls] == [
        (lam, r) for lam in cfg.lambdas for r in cfg.radii]
    assert [warm for _, _, _, warm, _ in calls] == [
        lam != cfg.lambdas[0] for lam in cfg.lambdas for _ in cfg.radii]
    cold_rows, cold_iterations = _cold_gap_rows(cfg, report, calls)
    # the same floats, so the same gaps.csv bytes
    assert report.tables["gaps"]["rows"] == cold_rows
    assert sum(it for *_, it in calls) < cold_iterations


def test_localization_warm_start_keeps_arctan_gaps(tmp_path, monkeypatch):
    cfg = dataclasses.replace(
        builtin_models()["arctan"], outdir=str(tmp_path),
        grid={"box": [[-10.0, 10.0]], "shape": [61], "kind": "box"},
        controls={"da": 0.5}, lambdas=(0.2, 0.1, 0.05), radii=(2.0, 3.0, 4.0))
    report, calls = _localize_recording(monkeypatch, cfg,
                                        str(tmp_path / "run"))
    cold_rows, _ = _cold_gap_rows(cfg, report, calls)
    rows = report.tables["gaps"]["rows"]
    assert [r[:2] + r[5:] for r in rows] == [r[:2] + r[5:] for r in cold_rows]
    np.testing.assert_allclose([r[4] for r in rows],
                               [r[4] for r in cold_rows], rtol=0, atol=1e-13)


def test_localization_failed_cell_hands_no_start_on(tmp_path, monkeypatch):
    cfg = coarse(tmp_path, lambdas=[0.4, 0.2, 0.1], probes=[1.0])
    report, calls = _localize_recording(monkeypatch, cfg,
                                        str(tmp_path / "run"),
                                        fail=(0.4, 4.0))
    status = {(r[0], r[1]): r[5] for r in report.tables["gaps"]["rows"]}
    assert status.pop((0.4, 4.0)) == "SolverError: planted failure"
    assert set(status.values()) == {"ok"}
    warm = {(lam, r): w for lam, r, _, w, _ in calls}
    assert warm == {(lam, r): lam != 0.4 and (lam, r) != (0.2, 4.0)
                    for lam in cfg.lambdas for r in cfg.radii
                    if (lam, r) != (0.4, 4.0)}


def test_localization_records_an_unsettled_cell(tmp_path, monkeypatch):
    cfg = coarse(tmp_path, lambdas=[0.4, 0.2, 0.1], probes=[1.0])
    report, calls = _localize_recording(monkeypatch, cfg,
                                        str(tmp_path / "run"),
                                        stall=(0.4, 4.0))
    status = {(r[0], r[1]): r[5] for r in report.tables["gaps"]["rows"]}
    [iterations] = [it for lam, r, *_, it in calls if (lam, r) == (0.4, 4.0)]
    assert re.fullmatch(
        r"SolverError: state-constraint solve at lam=0\.4 did not settle "
        rf"\(residual \S+ after {iterations} policy iterations\)",
        status.pop((0.4, 4.0)))
    assert set(status.values()) == {"ok"}
    warm = {(lam, r): w for lam, r, _, w, _ in calls}
    assert not warm[(0.2, 4.0)]


@pytest.fixture(scope="module")
def measures_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("measures")
    cfg = coarse(tmp, lambdas=[0.2, 0.1, 0.05])
    run_dir = os.path.join(tmp, "run")
    report = measure_study(cfg, run_dir=run_dir)
    return report, run_dir


def test_measure_study_verdicts(measures_report):
    report, _ = measures_report
    names = {v["name"] for v in report.verdicts}
    assert names == {"closedness_exponent", "mather_final",
                     "support_concentrates", "weak_limit_final"}
    assert report.verdict("closedness_exponent")["passed"]
    assert report.verdict("mather_final")["passed"]
    assert report.verdict("support_concentrates")["passed"]


def test_measure_study_tables(measures_report):
    report, run_dir = measures_report
    defects = report.tables["defects"]["rows"]
    assert len(defects) == 6
    assert all(row[6] == "ok" for row in defects)
    # the stationary probe is flagged degenerate, the moving one is fitted
    slopes = {row[0]: row for row in report.tables["slopes"]["rows"]}
    assert slopes["0"][2] == "degenerate"
    assert slopes["1"][2] == "ok"
    assert 0.7 <= slopes["1"][1] <= 1.3
    weak = report.tables["weak_limit"]["rows"]
    assert len(weak) == 4  # two consecutive gaps per probe
    for lam in (0.2, 0.1, 0.05):
        for z in ("0", "1"):
            assert os.path.exists(os.path.join(
                run_dir, f"measure_lam{lam:g}_z{z}.csv"))


def test_drivers_build_one_kernel_per_grid(tmp_path, monkeypatch):
    built = []
    init = SweepKernel.__init__

    def counting_init(self, grid, *args, **kwargs):
        built.append(grid.shape)
        init(self, grid, *args, **kwargs)

    monkeypatch.setattr(SweepKernel, "__init__", counting_init)
    cfg = coarse(tmp_path, grid={"box": [[-10.0, 10.0]], "shape": [41]},
                 horizon=2.0)
    for driver, count in ((vanishing_discount_sweep, 1), (measure_study, 1),
                          (localization_study, 1 + len(cfg.radii))):
        built.clear()
        driver(cfg, run_dir=str(tmp_path / driver.__name__))
        # every ball sits on the config's own lattice
        assert built == [(41,)] * count, driver.__name__
    built.clear()
    kernel = experiments.setup(cfg)
    aubry_indicator(kernel, 0.0, [0.0, 1.0, -1.0], cfg.build_params())
    assert len(built) == 1


def test_trace_warnings_land_in_report_notes(tmp_path, monkeypatch):
    real = experiments.backtrace

    def warn_at_small_lambda(kernel, fields, lams, *args):
        curves = real(kernel, fields, lams, *args)
        return [dataclasses.replace(curve, warning="3/9 steps exceeded")
                if lam == 0.2 else curve for lam, curve in zip(lams, curves)]

    monkeypatch.setattr(experiments, "backtrace", warn_at_small_lambda)
    cfg = coarse(tmp_path, grid={"box": [[-10.0, 10.0]], "shape": [41]},
                 lambdas=[0.4, 0.2], probes=[0.0, 1.5], horizon=2.0,
                 window=[[-1.0, 1.0]])
    expected = ["trace lam=0.2 z=0: 3/9 steps exceeded",
                "trace lam=0.2 z=1.5: 3/9 steps exceeded"]
    for name, driver in (("measures", measure_study),
                         ("sweep", vanishing_discount_sweep)):
        run_dir = os.path.join(tmp_path, name)
        report = driver(cfg, run_dir=run_dir)
        trace_notes = [n for n in report.notes if n.startswith("trace ")]
        assert trace_notes == expected, name
        with open(os.path.join(run_dir, "report.json")) as handle:
            assert json.load(handle)["notes"] == report.notes


def test_a_batch_error_fails_every_traced_cell_not_the_run(tmp_path,
                                                          monkeypatch):
    cfg = coarse(tmp_path, grid={"box": [[-10.0, 10.0]], "shape": [41]},
                 horizon=2.0, window=[[-1.0, 1.0]])
    kernel = experiments.setup(cfg)
    elsewhere = cfg.build_grid(5.0)
    field = GridField(elsewhere, np.zeros(elsewhere.shape))
    keys = [(0.2, 0.0), (0.2, 1.0)]
    assert experiments.trace_measures(kernel, cfg, {0.2: field}, keys) == [
        ("error", "ValueError: traced fields must live on the kernel's grid")
    ] * 2

    def out_of_range(*args):
        raise ExtentError("level 9 outside the sup table")

    monkeypatch.setattr(experiments, "backtrace", out_of_range)
    measures = measure_study(cfg, run_dir=os.path.join(tmp_path, "measures"))
    sweep = vanishing_discount_sweep(cfg,
                                     run_dir=os.path.join(tmp_path, "sweep"))
    status = "ExtentError: level 9 outside the sup table"
    assert [r[-1] for r in measures.tables["defects"]["rows"]] == [status] * 4
    assert [r[-1] for r in sweep.tables["selection"]["rows"]] == [status] * 4


# ---------------------------------------------------------------------------
# presets and assumption checks


def test_builtin_model_roster():
    presets = builtin_models()
    assert set(presets) == {"quadratic-linear", "quadratic-phi", "power-tau",
                            "arctan", "quadratic-2d"}
    for name, cfg in presets.items():
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.name == name
    assert presets["arctan"].c == pytest.approx(np.pi)
    assert presets["quadratic-2d"].build_model().dim == 2


def test_preset_grids_build():
    # the truncation ball sweep and localize solve on, and localize's balls,
    # all on the main grid's lattice
    for name, cfg in builtin_models().items():
        r_trunc = cfg.trunc_radius()
        assert r_trunc > max(cfg.radii), name
        main = cfg.build_grid()
        for radius in cfg.radii + (r_trunc,):
            grid = cfg.build_grid(radius)
            assert grid.mask.any(), (name, radius)
            assert all(np.array_equal(a, b)
                       for a, b in zip(grid.axes, main.axes)), (name, radius)


def test_preset_main_grids_have_a_centre_node():
    # every ball is centred at the origin of the main grid's lattice, so an
    # odd node count per axis of a symmetric box puts a node at its centre
    for name, cfg in builtin_models().items():
        grid = cfg.build_grid()
        node = grid.nearest_node(np.zeros(grid.dim))
        point = [axis[i] for axis, i in zip(grid.axes, node)]
        assert np.array_equal(point, np.zeros(grid.dim)), (name, grid.shape)
        assert grid.mask[tuple(node)], name


VERIFIED = dict.fromkeys(("H1", "H2", "H3", "H4", "P1", "P2", "P3"),
                        "verified-on-samples")
PRESET_SPLITS = {
    "quadratic-linear": VERIFIED,
    "quadratic-phi": VERIFIED,
    "power-tau": VERIFIED,
    # violations are expected here, hence no mismatch
    "arctan": {**VERIFIED, "H4": "violated", "P2": "violated"},
    "quadratic-2d": VERIFIED,
}


@pytest.mark.parametrize("name", sorted(builtin_models()))
def test_preset_assumption_split(name):
    res = run_assumption_check(builtin_models()[name])
    assert res["passed"]
    assert res["mismatches"] == {}
    statuses = {c["name"]: c["status"] for c in res["report"]["checks"]}
    assert statuses == PRESET_SPLITS[name]
    json.dumps(res, allow_nan=False)  # strict JSON: no inf or NaN margin
