"""contact-hj benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each driver call runs in a fresh process (perfbench/child.py) with
CONTACT_HJ_WORKERS=1 and one BLAS thread; calls are repeated, one after the
other, until the next one would end after S seconds (at least MIN_CALLS).
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json as
medians over its calls. With --trace 1 it alternates untraced and traced
calls and reports the per-layer metrics of the traced ones, plus the tracing
overhead against the untraced ones. The seed only picks the probe points.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A run record (samples, machine, spans) is
written to .perfbench-out/ in the checkout. --toy runs the same code at a
size small enough for the smoke test, without the reference comparison.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

import tracing
import workloads

MIN_CALLS = 3          # untraced calls per run, and traced pairs with --trace 1
CHILD_TIMEOUT_S = 120  # one driver call; the study-size calls take 2-3 s
RUN_DEADLINE_S = 170   # a run exits within 180 s whatever the calls do
OUT_DIR = ".perfbench-out"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_share": "ratio"}
PINNED_ENV = {"CONTACT_HJ_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


CALL_KEYS = ("wall_s", "raw_wall_s", "loop_ns", "setup_s", "raw_setup_s",
             "setup_loop_ns", "peak_rss_mb", "call_s", "attempted", "failed",
             "problems", "layers")


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _call(args, trace: int, run_id: int, tmp: str, env: dict,
          timeout: float) -> dict:
    result = os.path.join(tmp, f"call-{run_id}.json")
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--run-id", str(run_id), "--tmp", tmp,
           "--result", result] + (["--toy"] if args.toy else [])
    t0 = time.monotonic()
    try:
        # child output goes to stderr: stdout ends with the result line
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver call {run_id} ran over {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"driver call {run_id} exited with {proc.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    out["call_s"] = time.monotonic() - t0
    return out


def _cache_bytes() -> dict:
    """Cache sizes from getconf; None where the platform does not say."""
    sizes = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            text = subprocess.run(["getconf", key], capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            text = ""
        sizes[key.lower()] = int(text) if text.isdigit() else None
    return sizes


def measure(args, root: str, tmp: str) -> dict:
    env = _child_env(root)
    modes = (0, 1) if args.trace else (0,)
    calls = {0: [], 1: []}
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        for mode in modes:
            left = RUN_DEADLINE_S - (time.monotonic() - start)
            if left <= 0:
                raise BenchError(f"run deadline of {RUN_DEADLINE_S} s passed")
            run_id = len(calls[0]) + len(calls[1])
            calls[mode].append(_call(args, mode, run_id, tmp, env,
                                     min(CHILD_TIMEOUT_S, left)))
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_CALLS and elapsed + median(rounds) > args.seconds:
            break
    return {"calls": calls, "elapsed_s": time.monotonic() - start,
            "cache_bytes": _cache_bytes()}


def summarize(args, run: dict) -> tuple:
    plain, traced = run["calls"][0], run["calls"][1]
    every = plain + traced
    attempted = sum(c["attempted"] for c in every)
    failed = sum(c["failed"] for c in every)
    notes = []
    if args.trace:
        metrics = {}
        for name in tracing.UNITS:
            if name == "bench.trace_overhead_pct":
                continue
            values = [c["layers"][name] for c in traced]
            if name in tracing.COUNTS and len(set(values)) > 1:
                notes.append(f"count {name} differs between calls: {values}")
            metrics[name] = median(values)
        base = median([c["wall_s"] for c in plain])
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            median([c["wall_s"] for c in traced]) / base - 1.0)
        units = tracing.UNITS
    else:
        metrics = {name: median([c[name] for c in plain])
                   for name in ("wall_s", "setup_s", "peak_rss_mb")}
        metrics["ok_share"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, notes


def write_record(args, root: str, run: dict, result: dict, notes: list) -> str:
    calls = run["calls"][0] + run["calls"][1]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "elapsed_s": run["elapsed_s"],
        "pinned_env": PINNED_ENV,
        "machine": dict(calls[0]["machine"], cache_bytes=run["cache_bytes"]),
        "probes": calls[0]["probes"], "result": result, "notes": notes,
        "calls": [{k: c.get(k) for k in CALL_KEYS} for c in calls],
        "counters": [c["counters"] for c in run["calls"][1]],
        "spans": [s for c in run["calls"][1] for s in c["spans"]],
    }
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-toy" if args.toy else "") + ".json")
    path = os.path.join(root, OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def report(args, run: dict, result: dict, notes: list, path: str) -> None:
    plain = run["calls"][0]
    machine = plain[0]["machine"]
    print(f"workload {args.workload}  seed {args.seed}  probes "
          f"{plain[0]['probes']}  calls {len(plain)} untraced, "
          f"{len(run['calls'][1])} traced")
    print(f"machine  nproc {machine['nproc']}  python {machine['python']}  "
          f"numpy {machine['numpy']}  blas {machine['blas']}  caches "
          f"{run['cache_bytes']}  pinned {PINNED_ENV}")
    samples = len(run["calls"][1] if args.trace else plain)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} "
              f"median of {samples}")
    share = result["failed"] / result["attempted"]
    print(f"  {'fail_share':34s} {share:>16.6g} {'ratio':6s} "
          f"{result['failed']} of {result['attempted']} operations")
    for key, unit in (("raw_wall_s", "s"), ("raw_setup_s", "s"),
                      ("loop_ns", "ns")):
        value = median([c[key] for c in plain])
        print(f"  {key:34s} {value:>16.6g} {unit:6s} "
              f"median of {len(plain)}, untraced")
    for c in plain + run["calls"][1]:
        for problem in c["problems"]:
            print(f"  FAILED {problem}")
    for note in notes:
        print(f"  NOTE {note}")
    print(f"record {os.path.relpath(path)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="smoke-test size, no reference comparison")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "contact_hj", "__init__.py")):
        print(f"error: {root} holds no src/contact_hj to measure; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    try:
        run = measure(args, root, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result, notes = summarize(args, run)
    path = write_record(args, root, run, result, notes)
    report(args, run, result, notes, path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
