import dataclasses
import json
import os

import numpy as np
import pytest

from contact_hj import experiments
from contact_hj.experiments import (ConfigError, ExperimentConfig, _guard,
                                    builtin_models, localization_study,
                                    make_run_dir, measure_study,
                                    read_config_file, run_assumption_check,
                                    vanishing_discount_sweep)
from contact_hj.hamiltonian import HamiltonianModel, LagrangianEvaluator
from contact_hj.solver import SweepKernel, aubry_indicator

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
    ball = cfg.build_grid(kind="ball", radius=7.0)
    assert not bool(ball.mask[0])  # corners cut off
    assert cfg.node_density() == pytest.approx(5.0)
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
        assert len(built) == count, driver.__name__
    built.clear()
    kernel = experiments.setup(cfg)
    aubry_indicator(kernel, 0.0, [0.0, 1.0, -1.0], cfg.build_params())
    assert len(built) == 1


def test_trace_warnings_land_in_report_notes(tmp_path, monkeypatch):
    real = experiments.backtrace

    def warn_at_small_lambda(field, evaluator, controls, lam, *args):
        curve = real(field, evaluator, controls, lam, *args)
        if lam == 0.2:
            curve = dataclasses.replace(curve, warning="3/9 steps exceeded")
        return curve

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
    # the truncated grid sweep solves on, and the ball grids localize solves on
    for name, cfg in builtin_models().items():
        r_trunc = cfg.trunc_radius()
        assert r_trunc > max(cfg.radii), name
        assert cfg.build_grid(kind="ball", radius=r_trunc).mask.any(), name
        for radius in cfg.radii + (r_trunc,):
            assert cfg.localization_grid(radius).mask.any(), (name, radius)


def test_preset_localization_grids_have_a_centre_node():
    # an odd node count per axis puts a node at the centre of every ball
    for name, cfg in builtin_models().items():
        for radius in cfg.radii + (cfg.trunc_radius(),):
            grid = cfg.localization_grid(radius)
            node = grid.nearest_node(np.zeros(grid.dim))
            assert np.array_equal(grid.node_point(node), np.zeros(grid.dim)), (
                name, radius, grid.shape)
            assert grid.mask[tuple(node)], (name, radius)


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
