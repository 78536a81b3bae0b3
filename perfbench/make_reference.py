"""Pin the reference outputs of every workload for every probe set.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/make_reference.py            # write reference.json
    PYTHONPATH=src python3 perfbench/make_reference.py --perturb 1e-8

The first form runs each workload once per probe set a seed can choose,
checks that every solve converges and every cell is ok, and writes
perfbench/reference.json. The second form writes nothing: it adds uniform
noise of the given size to every solved field and prints, per workload, the
largest change of the values computed from traced curves. That measurement
backs check.TRACE_FACTOR. Run with CONTACT_HJ_WORKERS=1 unset or 1.
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

import check
import hooks
import workloads
from contact_hj import experiments


def run_once(name: str, probes) -> tuple:
    """(outputs, solver tol) of one driver call."""
    spec = workloads.WORKLOADS[name]
    config = experiments.ExperimentConfig.from_dict(
        workloads.build_config(name, probes))
    recorder = check.Recorder()
    recorder.install()
    try:
        with tempfile.TemporaryDirectory() as run_dir:
            report = getattr(experiments, spec["driver"])(config, run_dir=run_dir)
    finally:
        recorder.uninstall()
    return check.outputs(report, recorder), config.solver["tol"]


def _perturbing(eps: float, rng):
    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            field = getattr(result, "field", result)
            field.values += rng.uniform(-eps, eps, field.values.shape)
            return result
        return wrapper
    return make


def trace_values(out: dict) -> list:
    vals = []
    for name, tab in sorted(out["tables"].items()):
        for row in tab["rows"]:
            for col, value in zip(tab["columns"], row):
                if col in check.TRACE_COLUMNS and isinstance(value, float):
                    vals.append(value)
    return vals


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--perturb", type=float)
    args = ap.parse_args()
    os.environ["CONTACT_HJ_WORKERS"] = "1"
    reference = {}
    for name, spec in workloads.WORKLOADS.items():
        reference[name] = {}
        worst = 0.0
        for probes in workloads.probe_sets(name):
            out, tol = run_once(name, probes)
            _, failed, problems = check.compare(out, None, spec["cell_table"], tol)
            if failed:
                print(f"{name} {probes}: {problems}", file=sys.stderr)
                return 1
            if args.perturb:
                undo = []
                rng = np.random.default_rng(0)
                for solve in check.RECORDED_SOLVES:
                    undo += hooks.install(f"contact_hj.solver:{solve}",
                                          _perturbing(args.perturb, rng))
                try:
                    moved, _ = run_once(name, probes)
                finally:
                    hooks.uninstall(undo)
                worst = max([worst] + [abs(a - b) for a, b in
                                       zip(trace_values(out), trace_values(moved))])
            reference[name][workloads.probe_key(probes)] = out
            print(f"{name} {probes}: ok", file=sys.stderr)
        if args.perturb:
            print(f"{name}: largest trace-value change {worst:.3g}")
    if not args.perturb:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "reference.json")
        with open(path, "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
