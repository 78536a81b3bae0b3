"""The benchmark's workloads: pinned driver configs and the seed -> probe rule.

Every workload is a fully pinned config dict for one public driver of
``contact_hj.experiments``; none reads a live preset, so a preset edit cannot
move the benchmark. The seed only picks the probe points from a fixed lattice
per workload. Probes change where curves are traced and where gaps are read,
never how many solves, sweeps or trace steps run, so the amount of work is
the same for every seed.

This module imports nothing from ``contact_hj`` and no third-party package:
the child process imports it before it starts the set-up timer.
"""

import itertools
import math
import random

DEFAULT_SEED = 0

QUADRATIC_LINEAR = {
    "dim": 1, "kinetic": {"type": "quadratic"}, "potential": "1 - exp(-x^2)",
    "coupling": {"type": "linear", "phi": "1",
                 "bounds": {"kappa_lo": 1.0, "kappa_hi": 1.0}}}
ARCTAN = {
    "dim": 1, "kinetic": {"type": "quadratic"}, "potential": "1 - exp(-x^2)",
    "coupling": {"type": "arctan", "shift": math.pi}}
QUADRATIC_2D = {
    "dim": 2, "kinetic": {"type": "quadratic"},
    "potential": "1 - exp(-(x^2 + y^2))",
    "coupling": {"type": "linear", "phi": "1",
                 "bounds": {"kappa_lo": 1.0, "kappa_hi": 1.0}}}

# Schedules are shrunk from the study sizes so that one driver call takes
# about two seconds: a run then holds several calls and reports their median.
# Each shrink keeps the workload's layer mix (see README.md).
WORKLOADS = {
    # Solver only: 9 cold ball solves and 3 warm truncated solves, no traces.
    "localize-1d": {
        "driver": "localization_study",
        "config": {
            "name": "bench-localize-1d", "model": QUADRATIC_LINEAR, "c": 0.0,
            "grid": {"box": [[-10.0, 10.0]], "shape": [61]},
            "lambdas": [0.4, 0.2, 0.1], "radii": [2.0, 4.0, 6.0],
            "controls": {"da": 0.5}},
        "probe_lattice": [[-1.0], [-0.5], [0.0], [0.5], [1.0]],
        "probes_per_run": 1,
        "cell_table": "gaps",
        "toy": {"grid": {"box": [[-10.0, 10.0]], "shape": [41]},
                "lambdas": [0.4, 0.2], "radii": [2.0, 3.0]},
    },
    # Traces, interpolation and measures on a full box (no mask).
    "measures-1d": {
        "driver": "measure_study",
        "config": {
            "name": "bench-measures-1d", "model": QUADRATIC_LINEAR, "c": 0.0,
            "grid": {"box": [[-10.0, 10.0]], "shape": [61]},
            "lambdas": [0.4, 0.2, 0.1], "horizon": 12.0,
            "controls": {"da": 0.5}},
        "probe_lattice": [[-2.5], [-1.0], [0.0], [1.0], [2.5]],
        "probes_per_run": 3,
        "cell_table": "defects",
        "toy": {"grid": {"box": [[-10.0, 10.0]], "shape": [41]},
                "lambdas": [0.4, 0.2], "horizon": 4.0},
    },
    # p-coupled sweeps with sup-table builds, the lam=0 ergodic and pinned
    # solves, field CSVs, and arctan traces whose Legendre sup runs over the
    # momentum lattice.
    "sweep-arctan": {
        "driver": "vanishing_discount_sweep",
        "config": {
            "name": "bench-sweep-arctan", "model": ARCTAN, "c": math.pi,
            "grid": {"box": [[-10.0, 10.0]], "shape": [61]},
            "lambdas": [0.2, 0.1], "horizon": 10.0,
            "controls": {"da": 0.25}},
        "probe_lattice": [[-2.0], [-1.0], [1.0], [2.0]],
        "probes_per_run": 1,
        "cell_table": "selection",
        "toy": {"grid": {"box": [[-10.0, 10.0]], "shape": [41]},
                "lambdas": [0.4, 0.2], "horizon": 4.0},
    },
    # The 2D code path; 59% of the box nodes lie outside the ball mask.
    "measures-2d": {
        "driver": "measure_study",
        "config": {
            "name": "bench-measures-2d", "model": QUADRATIC_2D, "c": 0.0,
            "grid": {"box": [[-4.0, 4.0], [-4.0, 4.0]], "shape": [21, 21],
                     "kind": "ball", "radius": 3.0},
            "lambdas": [0.2, 0.1], "horizon": 10.0,
            "controls": {"da": 0.8}},
        "probe_lattice": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.5, -0.5]],
        "probes_per_run": 1,
        "cell_table": "defects",
        "toy": {"grid": {"box": [[-4.0, 4.0], [-4.0, 4.0]], "shape": [13, 13],
                         "kind": "ball", "radius": 3.0},
                "lambdas": [0.4, 0.2], "horizon": 2.0,
                "controls": {"da": 1.0}},
    },
}


def probe_sets(name: str) -> list:
    """Every probe set a seed can choose for the workload, in a fixed order."""
    spec = WORKLOADS[name]
    return [list(c) for c in itertools.combinations(spec["probe_lattice"],
                                                    spec["probes_per_run"])]


def probe_key(probes) -> str:
    """Stable text key of a probe set, used to index the reference file."""
    return ";".join(",".join(f"{v:g}" for v in p) for p in probes)


def choose_probes(name: str, seed: int) -> list:
    sets = probe_sets(name)
    return sets[random.Random(seed).randrange(len(sets))]


def build_config(name: str, probes, toy: bool = False) -> dict:
    """The pinned config dict of a workload with the chosen probes."""
    spec = WORKLOADS[name]
    config = dict(spec["config"])
    if toy:
        config.update(spec["toy"])
    config["probes"] = [list(p) for p in probes]
    return config


def scheduled_lambdas() -> list:
    """Every lambda any workload schedules, plus 0 for the ergodic solves."""
    lams = {0.0}
    for spec in WORKLOADS.values():
        lams.update(float(l) for l in spec["config"]["lambdas"])
    return sorted(lams, reverse=True)
