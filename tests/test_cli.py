import json
import os

import numpy as np
import pytest

from contact_hj.cli import main

from conftest import read_field_csv

QL_MODEL = {"dim": 1, "kinetic": {"type": "quadratic"},
            "potential": "1 - exp(-x^2)",
            "coupling": {"type": "linear", "phi": "1",
                         "bounds": {"kappa_lo": 1.0, "kappa_hi": 1.0}}}


@pytest.fixture()
def cfg_file(tmp_path):
    data = {"name": "cli-coarse", "model": QL_MODEL, "c": 0.0,
            "grid": {"box": [[-10.0, 10.0]], "shape": [101]},
            "lambdas": [0.2, 0.1], "radii": [3.0, 4.0, 5.0],
            "probes": [0.0, 1.0], "horizon": 20.0,
            "solver": {"tol": 1e-6}, "outdir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path), str(tmp_path / "out")


def test_missing_config_file_is_exit_2(capsys):
    rc = main(["solve", "--config", "/no/such/file.json"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "/no/such/file.json" in err


def test_unknown_preset_is_exit_2(capsys):
    rc = main(["check", "--preset", "nope"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err
    assert "quadratic-linear" in err  # the roster is listed


def test_no_config_source_is_exit_2(capsys):
    rc = main(["solve"])
    assert rc == 2
    assert "--config FILE or --preset NAME" in capsys.readouterr().err


def test_bad_override_key_dies_before_compute(cfg_file, capsys):
    path, _ = cfg_file
    rc = main(["solve", "--config", path, "--set", "solver.tolerance=1e-9"])
    assert rc == 2
    assert "tolerance" in capsys.readouterr().err


def test_override_into_scalar_is_exit_2(cfg_file, capsys):
    path, _ = cfg_file
    rc = main(["solve", "--config", path, "--set", "c.inner=1"])
    assert rc == 2
    assert "non-object" in capsys.readouterr().err


def test_non_finite_literal_is_exit_2(capsys):
    rc = main(["check", "--preset", "quadratic-linear",
               "--set", "model.potential=1e400*x^2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "not finite" in err


def test_bad_solver_dt_is_exit_2(tmp_path, capsys):
    # zero, negative and NaN steps fail as config errors before any sweep,
    # as do a bad tol, iteration cap, control lattice, horizon, schedule,
    # c, grid shape, gap tolerance or truncation radius; a quoted number is
    # read as the number it spells
    base = ["solve", "--preset", "quadratic-linear", "--lam", "0.2",
            "--out", str(tmp_path), "--stamp", "t"]
    for key, raw in (("solver.dt", "0"), ("solver.dt", "-0.02"),
                     ("solver.dt", "NaN"), ("solver.tol", "NaN"),
                     ("solver.tol", "-1"), ("solver.max_iters", "2.7"),
                     ("controls.da", "NaN"), ("controls.max_speed", "NaN"),
                     ("horizon", "-5"), ("lambdas", "[0.2, NaN]"),
                     ("radii", "[NaN, 3]"), ("c", "NaN"),
                     ("grid.shape", "[41.5]"), ("gap_tol", "-1"),
                     ("truncation_radius", "-3")):
        assert main(base + ["--set", f"{key}={raw}"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"'{key}'" in err
    assert main(base + ["--set", "solver.dt=0.02"]) == 2
    as_number = capsys.readouterr().err
    assert "one cell per step" in as_number
    assert main(base + ["--set", 'solver.dt="0.02"']) == 2
    assert capsys.readouterr().err == as_number


def test_expression_depth_bound_is_exit_2(cfg_file, capsys):
    # "+0" terms leave the potential as it is and add one tree level each
    path, _ = cfg_file
    base = "1 - exp(-x^2)"          # 5 levels deep
    for extra, want in ((95, 0), (96, 2)):
        rc = main(["solve", "--config", path, "--stamp", f"d{extra}",
                   "--set", "model.potential=" + base + "+0" * extra])
        assert rc == want
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "nested more than" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": \n 7,}')
    rc = main(["solve", "--config", str(bad)])
    assert rc == 2
    assert "line" in capsys.readouterr().err


def test_check_preset_writes_report(tmp_path, capsys):
    rc = main(["check", "--preset", "quadratic-linear",
               "--out", str(tmp_path), "--stamp", "t"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H1: verified-on-samples" in out
    assert "expected split matched" in out
    with open(tmp_path / "check" / "t" / "assumption_report.json") as fh:
        payload = json.load(fh)
    assert payload["passed"]


def test_check_arctan_expected_violations_pass(tmp_path, capsys):
    rc = main(["check", "--preset", "arctan", "--out", str(tmp_path),
               "--stamp", "t"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "H4: violated" in out


def test_critical_prints_estimate(cfg_file, capsys):
    path, out = cfg_file
    rc = main(["critical", "--config", path, "--stamp", "t"])
    assert rc == 0
    assert "c_est = " in capsys.readouterr().out
    with open(os.path.join(out, "critical", "t", "critical.json")) as fh:
        payload = json.load(fh)
    assert len(payload["table"]) == 2
    assert abs(payload["value"]) <= 0.05


def test_solve_writes_field_and_outcome(cfg_file, capsys):
    path, out = cfg_file
    rc = main(["solve", "--config", path, "--lam", "0.2", "--stamp", "t"])
    assert rc == 0
    assert "converged=True" in capsys.readouterr().out
    run = os.path.join(out, "solve", "t")
    field = read_field_csv(os.path.join(run, "field.csv"))
    assert field.grid.shape == (101,)
    assert field.meta["lambda"] == 0.2
    with open(os.path.join(run, "outcome.json")) as fh:
        assert json.load(fh)["converged"] is True


def test_solve_quiet_silences_stdout(cfg_file, capsys):
    path, _ = cfg_file
    rc = main(["solve", "--config", path, "--lam", "0.2", "--stamp", "q",
               "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_ergodic_writes_field(cfg_file):
    path, out = cfg_file
    rc = main(["ergodic", "--config", path, "--stamp", "t"])
    assert rc == 0
    field = read_field_csv(os.path.join(out, "ergodic", "t", "field.csv"))
    assert abs(float(field.interpolate(0.0))) <= 1e-9


@pytest.mark.parametrize("coupling, unit", [
    (QL_MODEL["coupling"], "policy iterations"),
    ({"type": "linear", "phi": "x^2"}, "policy iterations"),  # phi(0) = 0
    ({"type": "arctan", "shift": 3.14159}, "policy iterations")])
def test_solve_line_names_the_loop(tmp_path, capsys, coupling, unit):
    data = {"name": "cli-loop", "model": dict(QL_MODEL, coupling=coupling),
            "c": 0.0, "grid": {"box": [[-3.0, 3.0]], "shape": [31]},
            "lambdas": [0.4], "solver": {"tol": 1e-6},
            "controls": {"da": 0.5}, "outdir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["solve", "--config", str(path), "--stamp", "t"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("lam=0.4: ") and f" {unit}, residual" in line


def test_mane_below_critical_is_exit_2(tmp_path, capsys):
    # S is -inf below the critical value: the least staying cost says so
    # before any solve; a supercritical c stays valid
    base = ["mane", "--preset", "quadratic-linear", "--out", str(tmp_path),
            "--stamp", "t", "--set"]
    assert main(base + ["c=-0.3"]) == 2
    err = capsys.readouterr().err
    assert "the assigned critical constant is off" in err
    assert "-0.3" in err
    assert main(base + ["c=0.3"]) == 0


def test_unbounded_solve_names_the_node_and_cost(tmp_path, capsys):
    # phi = x^2 vanishes at x = 0, where staying put costs c = -0.5 per
    # unit time with no discount: no bounded solution, said before any sweep
    rc = main(["solve", "--preset", "quadratic-linear", "--out",
               str(tmp_path), "--stamp", "t", "--lam", "0.2",
               "--set", 'model.coupling.phi="x^2"', "--set", "c=-0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no bounded solution" in err
    assert "x = 0," in err and "costs -0.5 " in err


def test_mane_writes_field(cfg_file):
    path, out = cfg_file
    rc = main(["mane", "--config", path, "--z", "0", "--stamp", "t"])
    assert rc == 0
    field = read_field_csv(os.path.join(out, "mane", "t", "field.csv"))
    assert float(field.interpolate(0.0)) == 0.0
    assert np.min(field.values) >= -1e-12


def test_trace_writes_curve_and_summary(cfg_file, capsys):
    path, out = cfg_file
    rc = main(["trace", "--config", path, "--lam", "0.2", "--z", "1",
               "--horizon", "15", "--stamp", "t"])
    assert rc == 0
    assert "representation residual" in capsys.readouterr().out
    run = os.path.join(out, "trace", "t")
    with open(os.path.join(run, "trace.json")) as fh:
        summary = json.load(fh)
    assert "kind" not in summary
    assert summary["z"] == 1.0
    assert summary["representation_residual"] <= 0.1
    data = np.loadtxt(os.path.join(run, "curve.csv"), delimiter=",",
                      comments="#")
    assert data.shape[1] == 5
    assert data[0, 0] == 0.0


def test_measure_reports_defects(cfg_file):
    path, out = cfg_file
    rc = main(["measure", "--config", path, "--lam", "0.2", "--z", "1",
               "--stamp", "t", "--quiet"])
    assert rc == 0
    run = os.path.join(out, "measure", "t")
    with open(os.path.join(run, "measure.json")) as fh:
        summary = json.load(fh)
    assert summary["weight_sum"] == pytest.approx(1.0, abs=1e-12)
    assert summary["closedness_defect"] > 0.0
    assert summary["mather_defect"] < 0.5
    data = np.loadtxt(os.path.join(run, "measure.csv"), delimiter=",",
                      comments="#")
    assert data.shape[1] == 3
    assert np.sum(data[:, 2]) == pytest.approx(1.0, abs=1e-12)


def test_tabulated_kinetic_extent_error_is_exit_2(cfg_file, capsys):
    # the control speeds reach past the table, so the Legendre maximizer
    # sits on its boundary
    path, _ = cfg_file
    kinetic = {"type": "tabulated", "dp": 0.1,
               "values": [0.5 * (0.1 * k) ** 2 for k in range(11)]}
    rc = main(["solve", "--config", path, "--set",
               "model.kinetic=" + json.dumps(kinetic), "--stamp", "t"])
    assert rc == 2
    assert "tabulated kinetic boundary" in capsys.readouterr().err


def test_z_dimension_mismatch_is_exit_2(cfg_file, capsys):
    path, _ = cfg_file
    rc = main(["trace", "--config", path, "--z", "1,2", "--stamp", "t"])
    assert rc == 2
    assert "--z needs 1 coordinate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--config", "CFG", "--set", "c=abc"],
    ["check", "--config", "CFG", "--set", 'lambdas=["x"]'],
    ["check", "--config", "CFG", "--set", 'probes=["a"]'],
    ["check", "--config", "CFG", "--set", 'horizon="h"'],
    ["check", "--config", "CFG", "--set", "gap_tol=[1]"],
    ["check", "--config", "CFG", "--set", 'grid.box=[[-1,"a"]]'],
    ["check", "--preset", "quadratic-2d", "--set", "window=[-2,2]"],
    ["solve", "--config", "CFG", "--set", 'solver.tol="abc"'],
    ["solve", "--config", "CFG", "--set", 'controls.da="q"'],
    ["localize", "--config", "CFG", "--z", "abc"],
    ["solve", "--config", "CFG", "--set", "model.potential=1/x"],
    ["critical", "--config", "CFG", "--set", "model.potential=1/x"],
    ["check", "--config", "CFG", "--set", "model.potential=1/x"],
    ["check", "--config", "CFG", "--set", "model.coupling.phi=1/x"],
    ["check", "--config", "CFG", "--set", "grid=3"],
    ["check", "--config", "CFG", "--set", "solver=3"],
    ["check", "--config", "CFG", "--set", "controls=3"],
    ["check", "--config", "CFG", "--set", "expect_assumptions=[1]"],
    ["check", "--config", "CFG", "--set", "probes=5"],
    ["check", "--config", "CFG", "--set", "window=5"],
    ["sweep", "--config", "CFG", "--set", "lambdas=[]"],
    ["solve", "--config", "CFG", "--set", "lambdas=[]"],
    ["localize", "--config", "CFG", "--set", "lambdas=[]"],
    ["measures-study", "--config", "CFG", "--set", "lambdas=[]"],
    ["solve", "--config", "CFG", "--set", "probes=[]"],
    ["localize", "--config", "CFG", "--set", "probes=[]"],
    ["check", "--config", "CFG", "--set", "model=3"],
    ["check", "--config", "CFG", "--set", "model.kinetic=3"],
    ["check", "--config", "CFG", "--set", "model.coupling=3"],
    ["check", "--config", "CFG", "--set", "model.coupling.kappa=3"],
    ["check", "--config", "CFG", "--set", 'model.coupling.phi="1 + y"'],
    ["solve", "--config", "CFG", "--set", "model.coupling.phi=1/x"],
    ["check", "--preset", "power-tau", "--set", "model.kinetic.tau=[1]"],
    ["check", "--preset", "arctan", "--set", "model.coupling.shift=[1]"],
    ["check", "--config", "CFG", "--set", "model.dim=[1]"],
    ["localize", "--config", "CFG", "--set", "radii=[]"],
    ["sweep", "--config", "CFG", "--set", "window=[[]]"],
    ["check", "--config", "CFG", "--set", "model.foo=1"],
    ["check", "--preset", "quadratic-linear", "--set", "model.kinetic.tau=3"],
    ["check", "--preset", "arctan", "--set", 'model.coupling.phi="1"'],
    ["solve", "--config", "CFG", "--lam", "nan"],
    ["trace", "--config", "CFG", "--lam", "-0.1"],
    ["mane", "--config", "CFG", "--z", "nan"],
    ["trace", "--config", "CFG", "--horizon", "-1"],
    ["measure", "--config", "CFG", "--horizon", "inf"],
    ["solve", "--config", "CFG", "--set", 'grid={"kind": "ball", "radius": -3}'],
    ["solve", "--config", "CFG", "--set", "grid.radius=0"],
    ["localize", "--config", "CFG", "--set", "radii=[-2,4,6]"],
    ["solve", "--preset", "quadratic-linear", "--set", "grid.radius=3"],
    ["solve", "--config", "CFG", "--set", "grid.kind=ball"],
    ["solve", "--preset", "quadratic-linear", "--set", "grid.shape=[2]"],
    ["check", "--config", "CFG", "--set", "grid.shape=[-5]"],
    ["check", "--preset", "power-tau", "--set",
     'model.kinetic={"type": "power"}'],
])
def test_malformed_input_is_exit_2(cfg_file, capsys, argv):
    path, out = cfg_file
    argv = [path if arg == "CFG" else arg for arg in argv]
    assert main(argv + ["--out", out, "--stamp", "t"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # the message names the overridden key, or the function it defines,
    # or the flag
    for flag, pair in zip(argv, argv[1:]):
        if flag == "--set":
            assert pair.partition("=")[0].rpartition(".")[2] in err
        elif flag in ("--lam", "--z", "--horizon"):
            assert flag in err


def test_report_config_holds_the_validated_grid(tmp_path):
    rc = main(["measures-study", "--preset", "quadratic-linear", "--out",
               str(tmp_path), "--stamp", "t", "--set", 'grid.shape=["201"]',
               "--set", "grid.kind=ball", "--set", 'grid.radius="3"'])
    assert rc == 0
    with open(tmp_path / "measures" / "t" / "report.json") as fh:
        grid = json.load(fh)["config"]["grid"]
    # JSON keeps the int apart from 201.0, which == would not
    assert grid["shape"] == [201] and type(grid["shape"][0]) is int
    assert grid["radius"] == 3.0 and type(grid["radius"]) is float


def test_localize_passes_at_the_origin(cfg_file, capsys):
    path, _ = cfg_file
    rc = main(["localize", "--config", path, "--z", "0", "--stamp", "t"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS comparison_sign" in out
    assert "PASS plateau_detected" in out
    assert "passed" in out


def test_sweep_exit_1_on_failed_verdict(cfg_file, capsys):
    # two coarse discounts cannot meet the Cauchy-tail thresholds; the
    # command must say so and exit nonzero
    path, _ = cfg_file
    rc = main(["sweep", "--config", path, "--stamp", "t"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "FAILED" in out
    assert "PASS proxy_matches_mane" in out


@pytest.mark.parametrize("command", ["localize", "measures-study"])
def test_unsettled_driver_solve_is_exit_2(tmp_path, capsys, command):
    # two policy iterations cannot reach the tolerance: a failure, not a
    # table row marked converged = false
    rc = main([command, "--preset", "quadratic-linear", "--out",
               str(tmp_path), "--stamp", "t", "--set", "solver.max_iters=2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "runtime error: state-constraint solve at lam=0.2 did not " \
           "settle (residual " in err
    assert "after 2 policy iterations" in err


@pytest.mark.parametrize("command, pair, key", [
    ("sweep", "truncation_radius=9.99", "truncation_radius"),
    ("localize", "radii=[2,8]", "radii")])
def test_truncation_ball_outside_the_box_is_exit_2(tmp_path, capsys, command,
                                                   pair, key):
    # dx = 0.05 on [-10, 10]: a ball past 9.95 has no cell to spare
    rc = main([command, "--preset", "quadratic-linear", "--out",
               str(tmp_path), "--stamp", "t", "--set", pair])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: '{key}' sets a truncation "
                          "ball of radius")
    assert "one-cell margin" in err
