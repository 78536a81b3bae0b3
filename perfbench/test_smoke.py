"""Smoke test of the benchmark itself: seconds long, toy sizes, same code.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
import hooks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# per workload, metrics whose hooks must have seen calls at any size
EXPECTED_NONZERO = {
    "localize-1d": ["solver.sweeps", "solver.solves", "solver.kernel_build_s",
                    "grid.interpolate_calls", "hamiltonian.f_evals",
                    "experiments.report_write_s"],
    "measures-1d": ["solver.sweeps", "trajectory.steps", "trajectory.indices_s",
                    "grid.interpolate_calls", "hamiltonian.legendre_calls",
                    "measures.defects_s", "measures.write_s",
                    "experiments.report_write_s"],
    "sweep-arctan": ["solver.sweeps", "solver.sweeps_per_solve.lam0",
                     "trajectory.steps", "grid.to_csv_s",
                     "hamiltonian.legendre_calls", "hamiltonian.table_builds",
                     "measures.defects_s", "experiments.report_write_s"],
    "measures-2d": ["solver.sweeps", "trajectory.steps",
                    "grid.interpolate_calls", "measures.write_s"],
}


def _bench(workload, trace, cwd=ROOT, toy=True):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--toy"] if toy else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(workload):
    result = _result(_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics_emitted_and_hooks_hit(workload):
    result = _result(_bench(workload, 1))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in EXPECTED_NONZERO[workload]:
        assert values[name] > 0, name
    # the layer mix each workload exists for
    assert (values["trajectory.steps"] == 0) == (workload == "localize-1d")
    assert (values["hamiltonian.table_builds"] > 0) == (workload == "sweep-arctan")
    assert (values["solver.useful_node_ratio"] < 0.5) == (workload == "measures-2d")
    record = os.path.join(ROOT, ".perfbench-out",
                          f"{workload}-seed3-trace1-toy.json")
    with open(record) as fh:
        assert json.load(fh)["notes"] == []  # counts repeat across calls


def test_missing_hook_target_fails_loudly():
    with pytest.raises(hooks.HookError):
        hooks.install("contact_hj.solver:SweepKernel.no_such_step", lambda f: f)
    with pytest.raises(hooks.HookError):
        hooks.install("contact_hj.trajectory:no_such_trace", lambda f: f)


def test_hooks_rebind_every_alias():
    import contact_hj.experiments
    import contact_hj.trajectory
    original = contact_hj.trajectory.backtrace
    undo = hooks.install("contact_hj.trajectory:backtrace", lambda f: "wrapped")
    try:
        assert contact_hj.trajectory.backtrace == "wrapped"
        assert contact_hj.experiments.backtrace == "wrapped"
    finally:
        hooks.uninstall(undo)
    assert contact_hj.experiments.backtrace is original


def _reference_case(workload):
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[workload]
    key = workloads.probe_key(workloads.choose_probes(workload, 0))
    return ref[key], workloads.WORKLOADS[workload]["cell_table"]


def test_reference_covers_every_probe_set():
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    for name in workloads.WORKLOADS:
        keys = {workloads.probe_key(p) for p in workloads.probe_sets(name)}
        assert set(ref[name]) == keys


def test_check_accepts_reference_and_flags_changes():
    ref, cells = _reference_case("measures-1d")
    attempted, failed, problems = check.compare(ref, ref, cells, 1e-8)
    assert attempted == len(ref["solves"]) + len(ref["tables"][cells]["rows"]) + 1
    assert failed == 0 and problems == []

    moved = copy.deepcopy(ref)
    moved["solves"][0]["samples"][3] += 1e-4
    moved["tables"]["defects"]["rows"][0][3] += 1e-2     # mather defect
    assert check.compare(moved, ref, cells, 1e-8)[1] == 2

    flipped = copy.deepcopy(ref)
    i = next(i for i, v in enumerate(ref["verdicts"]) if v[1])
    flipped["verdicts"][i][1] = False
    assert check.compare(flipped, ref, cells, 1e-8)[1] == 1
    # a verdict failing in the reference that now passes is not a failure
    fixed = copy.deepcopy(ref)
    j = next(j for j, v in enumerate(ref["verdicts"]) if not v[1])
    fixed["verdicts"][j][1] = True
    assert check.compare(fixed, ref, cells, 1e-8)[1] == 0


def test_check_counts_unconverged_solves_and_bad_cells():
    ref, cells = _reference_case("localize-1d")
    bad = copy.deepcopy(ref)
    bad["solves"][1]["converged"] = False
    status = bad["tables"][cells]["columns"].index("status")
    bad["tables"][cells]["rows"][2][status] = "error: SolverError"
    bad["weight_sums"] = [1.0 + 1e-6]
    # the weight sum fails the report op
    assert check.compare(bad, ref, cells, 1e-8)[1] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("localize-1d", 0, cwd=tmp_path, toy=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
