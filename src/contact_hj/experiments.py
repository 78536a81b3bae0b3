"""End-to-end studies: discount sweeps, localization tables, measure scans.

Each driver consumes a validated ExperimentConfig, runs its sweep cells in
order, and assembles a ConvergenceReport whose verdicts cite the table rows
they were computed from. Cell failures are recorded in the tables and the
sweep continues; only configuration errors abort a run. All artifacts (CSV
tables, which gnuplot reads with `set datafile separator ","`, and
report.json) are written atomically under out/<experiment>/<timestamp>/.
"""

import datetime
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field as dc_field, fields

import numpy as np

from .grid import (Domain, DomainError, UniformGrid, atomic_write_text,
                   tensor_points)
from .expressions import ParseError
from .hamiltonian import (ASSUMPTIONS, HamiltonianModel, LagrangianEvaluator,
                          ModelError, check_assumptions)
from .measures import (closedness_defect, default_battery, discounted_measure,
                       mather_defect, selection_functional,
                       weak_limit_diagnostics, write_measure_csv)
from .solver import (CMismatchError, ControlSet, SolveParams, SolverError,
                     SweepKernel, mane_potential, solve_ergodic,
                     solve_state_constraint)
from .trajectory import backtrace, compute_indices

__all__ = ["ConfigError", "ExperimentConfig", "ConvergenceReport",
           "vanishing_discount_sweep", "localization_study", "measure_study",
           "builtin_models", "setup", "truncation_kernel", "discount_chain",
           "trace_curve", "trace_measures"]


class ConfigError(ValueError):
    """Raised for malformed configs before any compute starts."""


_GRID_KEYS = {"box", "shape", "kind", "radius"}
_SOLVER_KEYS = {"dt", "tol", "max_iters"}
_CONTROL_KEYS = {"max_speed", "da"}


def _number(value, key: str) -> float:
    """float(value), or ConfigError naming the config key unless finite."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key!r} needs a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key!r} must be finite, got {x!r}")
    return x


def _positive(value, key: str) -> float:
    """float(value), or ConfigError naming the key unless finite and > 0."""
    x = _number(value, key)
    if not x > 0:
        raise ConfigError(f"{key!r} must be finite and > 0, got {x!r}")
    return x


def _numbers(values, key: str) -> tuple:
    """A list of numbers as floats, or ConfigError naming the config key."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key!r} needs a list, got {values!r}")
    return tuple(_number(v, key) for v in values)


def _items(value, key: str):
    """value if it is a non-empty list, or ConfigError naming the key."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key!r} needs a non-empty list, got {value!r}")
    return value


def _section(data: dict, key: str, allowed=None) -> dict:
    """A copy of the object under key ({} when absent), or ConfigError; with
    allowed, also ConfigError for a key outside it."""
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} needs a JSON object, got {value!r}")
    for name in value:
        if allowed is not None and name not in allowed:
            raise ConfigError(f"unknown config key {key}.{name!r}")
    return dict(value)


def read_config_file(path) -> dict:
    """The JSON object held by a config file; ConfigError when there is none."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno} "
                          f"col {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines a run; every driver takes one of these."""

    name: str
    model: dict                  # HamiltonianModel descriptor
    c: float
    grid: dict                   # box/shape/kind/radius
    lambdas: tuple               # strictly decreasing, > 0
    radii: tuple                 # strictly increasing
    probes: tuple                # trace start points
    horizon: float | None        # None -> tail rule max(40, ln10/(lam*kappa))
    window: tuple                # compact comparison window, per axis
    solver: dict
    controls: dict
    truncation_radius: float | None
    gap_tol: float
    outdir: str
    expect_assumptions: dict = dc_field(default_factory=dict)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        for key in data:
            if key not in _TOP_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
        if "model" not in data:
            raise ConfigError("config needs a 'model' descriptor")
        try:
            model = HamiltonianModel.from_json(data["model"])
        except (ModelError, ParseError) as exc:
            raise ConfigError(f"bad model descriptor: {exc}") from exc
        dim = model.dim
        values = {"name": str(data.get("name", "custom")),
                  "model": model.to_json()}

        grid = values["grid"] = _section(data, "grid", _GRID_KEYS)
        if "box" not in grid:
            grid["box"] = [[-10.0, 10.0]] if dim == 1 else [[-6.0, 6.0]] * 2
        if "shape" not in grid:
            grid["shape"] = [401] if dim == 1 else [161, 161]
        grid["box"] = [list(_numbers(side, "grid.box"))
                       for side in _items(grid["box"], "grid.box")]
        shape = _numbers(grid["shape"], "grid.shape")
        if not all(n.is_integer() and n >= 3 for n in shape):
            raise ConfigError(f"'grid.shape' needs whole node counts of at "
                              f"least 3, got {grid['shape']!r}")
        grid["shape"] = [int(n) for n in shape]
        if grid.get("radius") is not None:
            grid["radius"] = _positive(grid["radius"], "grid.radius")
        if len(grid["box"]) != dim or len(grid["shape"]) != dim:
            raise ConfigError("grid box/shape rank does not match model dim")
        grid.setdefault("kind", "box")
        if grid["kind"] not in ("box", "ball"):
            raise ConfigError(f"grid.kind must be box or ball, got {grid['kind']!r}")
        if grid["kind"] == "box" and grid.get("radius") is not None:
            raise ConfigError("'grid.radius' needs 'grid.kind' ball")
        if grid["kind"] == "ball" and grid.get("radius") is None:
            raise ConfigError("'grid.kind' ball needs a 'grid.radius'")

        solver = values["solver"] = _section(data, "solver", _SOLVER_KEYS)
        solver["tol"] = _positive(solver.get("tol", 1e-8), "solver.tol")
        iters = _number(solver.get("max_iters", 50000), "solver.max_iters")
        if not (iters >= 1 and iters.is_integer()):
            raise ConfigError(f"'solver.max_iters' must be a positive "
                              f"integer, got {iters!r}")
        solver["max_iters"] = int(iters)
        if solver.setdefault("dt", None) is not None:
            solver["dt"] = _positive(solver["dt"], "solver.dt")

        controls = values["controls"] = _section(data, "controls",
                                                 _CONTROL_KEYS)
        for key in sorted(_CONTROL_KEYS):
            if controls.get(key) is not None:
                controls[key] = _positive(controls[key], "controls." + key)

        lams = values["lambdas"] = _numbers(_items(
            data.get("lambdas", (0.2, 0.1, 0.05, 0.025)), "lambdas"), "lambdas")
        if any(l <= 0 for l in lams):
            raise ConfigError("lambdas must be positive")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise ConfigError("lambdas must be strictly decreasing")
        radii = values["radii"] = tuple(_positive(r, "radii") for r in _items(
            data.get("radii", (2, 3, 4, 5, 6)), "radii"))
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("radii must be strictly increasing")

        probes = _items(data.get("probes", [0.0, 1.0] if dim == 1
                                 else [[0.0, 0.0]]), "probes")
        probes = values["probes"] = tuple(
            _numbers(p if isinstance(p, (list, tuple)) else [p], "probes")
            for p in probes)
        for p in probes:
            if len(p) != dim:
                raise ConfigError(f"probe {p} does not match model dim")

        window = _items(data.get("window", [-3.0, 3.0] if dim == 1
                                 else [[-2, 2], [-2, 2]]), "window")
        if dim == 1 and not isinstance(window[0], (list, tuple)):
            window = [window]
        window = values["window"] = tuple(_numbers(w, "window")
                                          for w in window)
        if any(len(w) != 2 for w in window):
            raise ConfigError(f"'window' rows need [lo, hi], got "
                              f"{[list(w) for w in window]!r}")
        if len(window) != dim:
            raise ConfigError("window rank does not match model dim")

        values["c"] = _number(data.get("c", 0.0), "c")
        for key in ("horizon", "truncation_radius"):
            values[key] = (None if data.get(key) is None
                           else _positive(data[key], key))
        values["gap_tol"] = _positive(data.get("gap_tol", 1e-3), "gap_tol")
        values["outdir"] = str(data.get("outdir", "out"))
        values["expect_assumptions"] = _section(data, "expect_assumptions",
                                                ASSUMPTIONS)
        return ExperimentConfig(**values)

    def to_dict(self) -> dict:
        """A deep copy of the fields: editing it leaves the config as is."""
        return asdict(self)

    # -- runtime objects ----------------------------------------------------

    def build_model(self) -> HamiltonianModel:
        return HamiltonianModel.from_json(self.model)

    def build_grid(self, radius=None) -> UniformGrid:
        """The main grid, or the ball of the given radius on its lattice."""
        box = tuple(tuple(b) for b in self.grid["box"])
        radius = self.grid.get("radius") if radius is None else radius
        domain = (Domain.full_box(box) if radius is None
                  else Domain.ball(box, radius))
        return UniformGrid(domain, tuple(self.grid["shape"]))

    def build_params(self) -> SolveParams:
        return SolveParams(tol=self.solver["tol"],
                           max_iters=self.solver["max_iters"])

    def build_controls(self, dim: int) -> ControlSet:
        return ControlSet.build(dim, max_speed=self.controls.get("max_speed"),
                                da=self.controls.get("da"))

    def trunc_radius(self) -> float:
        """The truncation radius: the configured one, else max(radii) + 2."""
        return self.truncation_radius or max(self.radii) + 2.0

    def trace_horizon(self, lam: float, kappa: float) -> float:
        """Horizon keeping the tail weight e^{lam*beta(-T)} at or below 0.1.

        kappa is the decay rate the traces may count on, the kernel's
        trace_kappa: its kappa_lo, or 0 where phi may vanish between nodes."""
        base = 40.0 if self.horizon is None else self.horizon
        if kappa > 0:
            return max(base, math.log(10.0) / (lam * kappa))
        return base


_TOP_KEYS = {f.name for f in fields(ExperimentConfig)}


# ---------------------------------------------------------------------------
# reports


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


@dataclass
class ConvergenceReport:
    experiment: str
    config: dict
    tables: dict = dc_field(default_factory=dict)   # name -> {columns, rows}
    verdicts: list = dc_field(default_factory=list)
    runtime: dict = dc_field(default_factory=dict)
    notes: list = dc_field(default_factory=list)

    def add_table(self, name: str, columns, rows) -> None:
        self.tables[name] = {"columns": list(columns),
                             "rows": [list(r) for r in rows]}

    def add_verdict(self, name: str, passed, observed, threshold: str,
                    table: str, rows) -> None:
        self.verdicts.append({"name": name, "passed": bool(passed),
                              "observed": observed, "threshold": threshold,
                              "table": table, "rows": list(rows)})

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def verdict(self, name: str) -> dict:
        for v in self.verdicts:
            if v["name"] == name:
                return v
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"experiment": self.experiment, "config": self.config,
                "tables": self.tables, "verdicts": self.verdicts,
                "runtime": self.runtime, "notes": self.notes}

    def write(self, run_dir) -> None:
        os.makedirs(run_dir, exist_ok=True)
        for name, tab in self.tables.items():
            header = "# " + ",".join(tab["columns"])
            lines = [header] + [",".join(_fmt(v) for v in row)
                                for row in tab["rows"]]
            atomic_write_text(os.path.join(run_dir, f"{name}.csv"),
                              "\n".join(lines) + "\n")
        atomic_write_text(os.path.join(run_dir, "report.json"),
                          json.dumps(self.to_json(), indent=2) + "\n")


def _guard(fn, *args):
    """("ok", fn(*args)), or ("error", message) for a cell error."""
    try:
        return ("ok", fn(*args))
    except (SolverError, DomainError, CMismatchError, ValueError) as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def make_run_dir(outdir, experiment: str, stamp: str = None) -> str:
    if stamp is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y%m%d-%H%M%S")
        base = os.path.join(outdir, experiment, stamp)
        n = 0
        path = base
        while os.path.exists(path):
            n += 1
            path = f"{base}-{n}"
    else:
        path = os.path.join(outdir, experiment, stamp)
    os.makedirs(path, exist_ok=True)
    return path


def _window_points(window, dx: float) -> np.ndarray:
    return tensor_points([
        np.linspace(lo, hi, max(3, int(round((hi - lo) / dx)) + 1))
        for lo, hi in window])


def _probe_label(p) -> str:
    return "_".join(f"{v:g}" for v in p)


def _note_trace_warning(report, lam, probe, curve) -> None:
    if curve.warning:
        report.notes.append(
            f"trace lam={lam:g} z={_probe_label(probe)}: {curve.warning}")


# ---------------------------------------------------------------------------
# pipeline stages shared by the drivers and the CLI


def setup(config: ExperimentConfig, radius: float = None) -> SweepKernel:
    """The sweep kernel of a config on build_grid(radius), at the config's
    solver.dt or else the kernel's default."""
    model = config.build_model()
    evaluator = LagrangianEvaluator(model)
    controls = config.build_controls(model.dim)
    return SweepKernel(config.build_grid(radius), evaluator, controls,
                       config.solver["dt"])


def truncation_kernel(config: ExperimentConfig) -> SweepKernel:
    """The kernel on the truncation ball, which sweep and localize share;
    ConfigError naming its radius's key unless the ball fits grid.box."""
    radius = config.trunc_radius()
    try:
        return setup(config, radius)
    except DomainError as exc:
        key = "truncation_radius" if config.truncation_radius else "radii"
        raise ConfigError(f"{key!r} sets a truncation ball of radius "
                          f"{radius:g} on grid.box: {exc}") from None


def _settled_solve(kernel: SweepKernel, lam: float, config, v0=None):
    """The state-constraint solve at lam; SolverError unless it settled."""
    out = solve_state_constraint(kernel, lam, config.c, config.build_params(),
                                 v0=v0)
    return out.settled(f"state-constraint solve at lam={lam:g}")


def discount_chain(kernel: SweepKernel, config: ExperimentConfig):
    """Yield (lam, outcome) of the settled state-constraint solves over the
    discount schedule, each warm-started from the previous field."""
    warm = None
    for lam in config.lambdas:
        out = _settled_solve(kernel, lam, config, v0=warm)
        warm = out.field.values
        yield lam, out


def trace_curve(kernel: SweepKernel, config: ExperimentConfig, field,
                lam: float, z, horizon: float = None):
    """(curve, index series, horizon) of the backtrace from z on field; a
    falsy horizon means the config's tail rule."""
    horizon = horizon or config.trace_horizon(lam, kernel.trace_kappa)
    curve = backtrace(kernel, field, lam, config.c, z, horizon)
    idx = compute_indices(curve, kernel.evaluator, field, lam)
    return curve, idx, horizon


def trace_measures(kernel: SweepKernel, config: ExperimentConfig, fields,
                   keys):
    """(curve, kappa series, discounted measure, horizon) of every (lam, z)
    key on fields[lam] at the config's tail rule, all traced in one lockstep
    backtrace; per key, _guard's (status, payload) pair. An error that ends
    the whole batch is every key's."""
    lams = [lam for lam, _ in keys]
    traced = [fields[lam] for lam in lams]
    horizons = [config.trace_horizon(lam, kernel.trace_kappa) for lam in lams]
    status, curves = _guard(backtrace, kernel, traced, lams, config.c,
                            [z for _, z in keys], horizons)
    if status != "ok":
        return [(status, curves)] * len(keys)
    return [_guard(_measure, kernel, field, lam, curve, horizon) for
            field, lam, curve, horizon in zip(traced, lams, curves, horizons)]


def _measure(kernel, field, lam, curve, horizon):
    if isinstance(curve, Exception):
        raise curve
    idx = compute_indices(curve, kernel.evaluator, field, lam)
    return curve, idx, discounted_measure(curve, idx, lam), horizon


# ---------------------------------------------------------------------------
# drivers


def vanishing_discount_sweep(config: ExperimentConfig,
                             run_dir=None) -> ConvergenceReport:
    """Sweep the discount parameter and compare against the ergodic limit.

    Solves the truncated maximal field for each discount in the schedule
    (warm-started along the chain), then checks window Cauchy decrease, decay
    of lam*u, the ergodic polish of the smallest-lambda field against the
    pinned semi-distance, and the selection functional of that limit proxy
    against every traced measure.
    """
    t_start = time.monotonic()
    kernel = truncation_kernel(config)
    evaluator = kernel.evaluator
    params = config.build_params()

    report = ConvergenceReport("vanishing_discount", config.to_dict())
    fields = {}
    solve_rows = []
    for lam, out in discount_chain(kernel, config):
        fields[lam] = out.field
        solve_rows.append([lam, out.iterations, out.final_residual,
                           out.converged])
    report.add_table("solves", ["lambda", "iterations", "residual",
                                "converged"], solve_rows)

    pts = _window_points(config.window, kernel.grid.dx[0])
    vals = {lam: fields[lam].interpolate(pts) for lam in config.lambdas}

    cauchy_rows = []
    for a, b in zip(config.lambdas, config.lambdas[1:]):
        cauchy_rows.append([a, b, float(np.max(np.abs(vals[a] - vals[b])))])
    report.add_table("cauchy", ["lambda_hi", "lambda_lo", "window_sup_diff"],
                     cauchy_rows)
    diffs = [r[2] for r in cauchy_rows]
    report.add_verdict("cauchy_monotone",
                       all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:])),
                       diffs, "nonincreasing", "cauchy",
                       range(len(cauchy_rows)))
    report.add_verdict("cauchy_final", diffs[-1] <= 2e-2, diffs[-1],
                       "<= 2e-2", "cauchy", [len(cauchy_rows) - 1])

    norm_rows = [[lam, float(np.max(np.abs(lam * vals[lam])))]
                 for lam in config.lambdas]
    report.add_table("lambda_norm", ["lambda", "window_max_lambda_u"],
                     norm_rows)
    norms = [r[1] for r in norm_rows]
    report.add_verdict("lambda_u_decreasing",
                       all(b <= a + 1e-12 for a, b in zip(norms, norms[1:])),
                       norms, "nonincreasing", "lambda_norm",
                       range(len(norm_rows)))
    report.add_verdict("lambda_u_final", norms[-1] <= 1e-2, norms[-1],
                       "<= 1e-2", "lambda_norm", [len(norm_rows) - 1])

    # limit proxy: ergodic polish warm-started from the smallest discount
    lam_min = config.lambdas[-1]
    origin = (0.0,) * kernel.grid.dim
    proxy_out = solve_ergodic(kernel, config.c, params, anchor=origin,
                              v0=fields[lam_min].values)
    proxy = proxy_out.field
    report.add_verdict("proxy_ergodic_residual",
                       proxy_out.final_residual <= 5 * params.tol,
                       proxy_out.final_residual, "<= 5*tol", "solves", [])

    mane = mane_potential(kernel, origin, config.c, params)
    proxy_w = proxy.interpolate(pts)
    mane_w = mane.interpolate(pts)
    gap = float(np.max(np.abs(proxy_w - mane_w)))
    report.add_table("limit_proxy", ["quantity", "value"],
                     [["proxy_vs_mane_window_sup", gap],
                      ["proxy_at_origin", float(proxy.interpolate(origin))],
                      ["ergodic_residual", proxy_out.final_residual]])
    report.add_verdict("proxy_matches_mane", gap <= 5e-2, gap, "<= 5e-2",
                       "limit_proxy", [0])
    p0 = report.tables["limit_proxy"]["rows"][1][1]
    report.add_verdict("proxy_origin", abs(p0) <= 2e-2, p0, "|.| <= 2e-2",
                       "limit_proxy", [1])

    # traced measures for every (lambda, probe) cell, selection vs the proxy
    keys = [(lam, probe) for lam in config.lambdas for probe in config.probes]
    sel_rows = []
    sel_values = []
    traced = trace_measures(kernel, config, fields, keys)
    for (lam, probe), (status, payload) in zip(keys, traced):
        if status != "ok":
            sel_rows.append([lam, _probe_label(probe), "nan", 0.0, payload])
            continue
        curve, idx, mu, horizon = payload
        _note_trace_warning(report, lam, probe, curve)
        value = selection_functional(mu, proxy, evaluator)
        sel_values.append(value)
        sel_rows.append([lam, _probe_label(probe), value, horizon, "ok"])
    report.add_table("selection", ["lambda", "probe", "functional",
                                   "horizon", "status"], sel_rows)
    worst = min(sel_values) if sel_values else float("nan")
    report.add_verdict("selection_nonnegative",
                       bool(sel_values) and worst >= -1e-2, worst,
                       ">= -1e-2", "selection", range(len(sel_rows)))

    run_dir = run_dir or make_run_dir(config.outdir, report.experiment)
    for lam in config.lambdas:
        fields[lam].to_csv(os.path.join(run_dir, f"field_lam{lam:g}.csv"))
    proxy.to_csv(os.path.join(run_dir, "limit_proxy_field.csv"))
    mane.to_csv(os.path.join(run_dir, "mane_field.csv"))
    if kernel.grid.dim == 1:
        cols = ["x"] + [f"u_{lam:g}" for lam in config.lambdas] \
            + ["proxy", "mane"]
        rows = np.column_stack([pts[:, 0]]
                               + [vals[lam] for lam in config.lambdas]
                               + [proxy_w, mane_w])
        report.add_table("profiles", cols, rows.tolist())
    report.runtime = {"seconds": time.monotonic() - t_start,
                      "cells": len(keys)}
    report.write(run_dir)
    return report


def localization_study(config: ExperimentConfig, z=None,
                       run_dir=None) -> ConvergenceReport:
    """Tabulate the truncated-maximal vs constrained-ball gap over (lam, R).

    Every ball, the truncation ball included, sits on the main grid's
    lattice, so the truncated field is the one sweep solves. Each radius's
    ball solve starts from its field at the previous discount when that
    cell ended ok, as discount_chain does. Detects the empirical
    plateau radius per discount: the first radius where the probe gap
    stays within gap_tol on two consecutive radii.
    """
    t_start = time.monotonic()
    z = config.probes[0] if z is None else z
    z = tuple(z) if isinstance(z, (list, tuple)) else (float(z),)
    r_trunc = config.trunc_radius()
    if r_trunc <= max(config.radii):
        raise ConfigError("truncation radius must exceed every scheduled R")
    kernel = truncation_kernel(config)

    report = ConvergenceReport("localization", config.to_dict())
    u_z = {}
    trunc_rows = []
    for lam, out in discount_chain(kernel, config):
        u_z[lam] = float(out.field.interpolate(z))
        trunc_rows.append([lam, r_trunc, u_z[lam], out.iterations,
                           out.final_residual])
    report.add_table("truncated", ["lambda", "R_trunc", "u_at_z",
                                   "iterations", "residual"], trunc_rows)

    ball_kernels = {}
    warm = {}  # radius -> field of its last cell, while that cell is ok

    def cell(lam, radius):
        # built on first use, so a grid or kernel error fails the cell
        if radius not in ball_kernels:
            ball_kernels[radius] = SweepKernel(
                config.build_grid(radius), kernel.evaluator, kernel.controls,
                config.solver["dt"])
        out = _settled_solve(ball_kernels[radius], lam, config,
                            v0=warm.pop(radius, None))
        theta = float(out.field.interpolate(z))
        warm[radius] = out.field.values
        return theta

    keys = [(lam, r) for lam in config.lambdas for r in config.radii]
    gap_rows = []
    for lam, radius in keys:
        status, payload = _guard(cell, lam, radius)
        if status != "ok":
            gap_rows.append([lam, radius, "nan", u_z[lam], "nan", payload])
            continue
        gap_rows.append([lam, radius, payload, u_z[lam], payload - u_z[lam],
                         "ok"])
    report.add_table("gaps", ["lambda", "R", "theta_at_z", "u_at_z", "gap",
                              "status"], gap_rows)
    worst_sign = min([0.0] + [row[4] for row in gap_rows if row[5] == "ok"])
    report.add_verdict("comparison_sign",
                       worst_sign >= -2 * config.solver["tol"], worst_sign,
                       ">= -2*tol", "gaps", range(len(gap_rows)))

    plateau_rows = []
    for lam in config.lambdas:
        gaps = [(r, row[4]) for (l, r), row in zip(keys, gap_rows)
                if l == lam and row[5] == "ok"]
        plateau_rows.append([lam, next(
            (r1 for (r1, g1), (_, g2) in zip(gaps, gaps[1:])
             if abs(g1) <= config.gap_tol and abs(g2) <= config.gap_tol),
            "none")])
    report.add_table("plateau", ["lambda", "R_z"], plateau_rows)
    found = [row for row in plateau_rows if row[1] != "none"]
    report.add_verdict("plateau_detected", len(found) > 0,
                       len(found), ">= 1 discount with a plateau",
                       "plateau", range(len(plateau_rows)))
    lam_z = max((row[0] for row in found), default="none")
    report.notes.append(f"empirical lambda_z: {lam_z}")

    run_dir = run_dir or make_run_dir(config.outdir, report.experiment)
    report.runtime = {"seconds": time.monotonic() - t_start,
                      "cells": len(keys), "z": list(z)}
    report.write(run_dir)
    return report


def measure_study(config: ExperimentConfig,
                  run_dir=None) -> ConvergenceReport:
    """Trace measures per (lambda, probe); scan defects against the discount.

    Fits the closedness-defect decay exponent over the discount schedule and
    runs the weak-limit diagnostics per probe.
    """
    t_start = time.monotonic()
    kernel = setup(config)
    evaluator = kernel.evaluator
    dim = kernel.grid.dim
    probes = config.probes
    battery = default_battery(dim)

    report = ConvergenceReport("measures", config.to_dict())
    fields = {lam: out.field for lam, out in discount_chain(kernel, config)}

    def defects(mu):
        closed = closedness_defect(mu, battery)
        mather = mather_defect(mu, evaluator, config.c)
        dist = mu.points - np.asarray([0.0] * dim)
        support = float(np.sum(mu.weights * np.sqrt(np.sum(dist ** 2, axis=1))))
        return closed, mather, support

    keys = [(lam, probe) for lam in config.lambdas for probe in probes]
    defect_rows = []
    measures_by_probe = {p: {} for p in probes}
    traced = trace_measures(kernel, config, fields, keys)
    for (lam, probe), (status, payload) in zip(keys, traced):
        if status == "ok":
            curve, idx, mu, horizon = payload
            status, payload = _guard(defects, mu)
        if status != "ok":
            defect_rows.append([lam, _probe_label(probe), "nan", "nan",
                                "nan", 0.0, payload])
            continue
        closed, mather, support = payload
        _note_trace_warning(report, lam, probe, curve)
        measures_by_probe[probe][lam] = mu
        defect_rows.append([lam, _probe_label(probe), closed, mather,
                            support, horizon, "ok"])
    report.add_table("defects", ["lambda", "probe", "closedness", "mather",
                                 "support_mean_dist", "horizon", "status"],
                     defect_rows)

    slope_rows = []
    for probe in probes:
        series = [(row[0], row[2], row[3], row[4]) for (l, p), row
                  in zip(keys, defect_rows)
                  if p == probe and row[6] == "ok"]
        closed = np.array([s[1] for s in series], dtype=float)
        if len(series) < 2 or np.any(closed <= 0):
            slope_rows.append([_probe_label(probe), "nan", "degenerate"])
            continue
        lams = np.array([s[0] for s in series], dtype=float)
        slope = float(np.polyfit(np.log(lams), np.log(closed), 1)[0])
        slope_rows.append([_probe_label(probe), slope, "ok"])
    report.add_table("slopes", ["probe", "closedness_exponent", "status"],
                     slope_rows)
    fitted = [r[1] for r in slope_rows if r[2] == "ok"]
    report.add_verdict("closedness_exponent",
                       bool(fitted) and all(0.7 <= s <= 1.3 for s in fitted),
                       fitted, "in [0.7, 1.3]", "slopes",
                       range(len(slope_rows)))

    final = [row for (l, p), row in zip(keys, defect_rows)
             if l == config.lambdas[-1] and row[6] == "ok"]
    worst_mather = max((abs(row[3]) for row in final), default=float("nan"))
    report.add_verdict("mather_final", bool(final) and worst_mather <= 5e-2,
                       worst_mather, "<= 5e-2 at smallest lambda", "defects",
                       range(len(defect_rows)))

    conc_ok = True
    for probe in probes:
        sup = [row[4] for (l, p), row in zip(keys, defect_rows)
               if p == probe and row[6] == "ok"]
        if any(b > a + 1e-9 for a, b in zip(sup, sup[1:])):
            conc_ok = False
    report.add_verdict("support_concentrates", conc_ok, conc_ok,
                       "mean distance nonincreasing in lambda", "defects",
                       range(len(defect_rows)))

    weak_rows = []
    for probe in probes:
        fam = measures_by_probe[probe]
        if len(fam) < 2:
            continue
        for row in weak_limit_diagnostics(fam, battery, evaluator):
            weak_rows.append([_probe_label(probe), *row])
    report.add_table("weak_limit", ["probe", "lambda_hi", "lambda_lo",
                                    "discrepancy"], weak_rows)
    finals = [row[3] for row in weak_rows
              if row[2] == config.lambdas[-1]]
    report.add_verdict("weak_limit_final",
                       bool(finals) and max(finals) <= 5e-2,
                       max(finals) if finals else "nan", "<= 5e-2",
                       "weak_limit", range(len(weak_rows)))

    run_dir = run_dir or make_run_dir(config.outdir, report.experiment)
    for probe in probes:
        for lam, mu in measures_by_probe[probe].items():
            name = f"measure_lam{lam:g}_z{_probe_label(probe)}.csv"
            write_measure_csv(os.path.join(run_dir, name), mu)
    report.runtime = {"seconds": time.monotonic() - t_start,
                      "cells": len(keys)}
    report.write(run_dir)
    return report


# ---------------------------------------------------------------------------
# presets


def builtin_models() -> dict:
    """Named desk-scale presets covering the structural variants."""
    verified = "verified-on-samples"
    base_expect = dict.fromkeys(ASSUMPTIONS, verified)
    presets = {}

    def add(name, data):
        presets[name] = ExperimentConfig.from_dict({"name": name, **data})

    gauss = "1 - exp(-x^2)"
    add("quadratic-linear", {
        "model": {"dim": 1, "kinetic": {"type": "quadratic"},
                  "potential": gauss,
                  "coupling": {"type": "linear", "phi": "1"}},
        "c": 0.0,
        "expect_assumptions": dict(base_expect),
    })
    add("quadratic-phi", {
        "model": {"dim": 1, "kinetic": {"type": "quadratic"},
                  "potential": gauss,
                  "coupling": {"type": "linear", "phi": "2 + sin(x)"}},
        "c": 0.0,
        "expect_assumptions": dict(base_expect),
    })
    add("power-tau", {
        "model": {"dim": 1, "kinetic": {"type": "power", "tau": 3.0},
                  "potential": gauss,
                  "coupling": {"type": "linear", "phi": "1"}},
        "c": 0.0,
        "expect_assumptions": dict(base_expect),
    })
    add("arctan", {
        "model": {"dim": 1, "kinetic": {"type": "quadratic"},
                  "potential": gauss,
                  "coupling": {"type": "arctan", "shift": math.pi}},
        # flat subsolutions give H(x,0,0) = pi - f <= pi with equality at the
        # potential minimum, so the critical constant is pi exactly
        "c": math.pi,
        "grid": {"box": [[-10.0, 10.0]], "shape": [201]},
        "expect_assumptions": {**base_expect, "H4": "violated",
                               "P2": "violated"},
    })
    add("quadratic-2d", {
        "model": {"dim": 2, "kinetic": {"type": "quadratic"},
                  "potential": "1 - exp(-(x^2 + y^2))",
                  "coupling": {"type": "linear", "phi": "1"}},
        "c": 0.0,
        # the truncation ball, max(radii) + 2, must fit the [-6, 6]^2 box
        "radii": [1.0, 2.0, 3.0],
        # a curve from (1, 0) moves, so the selection verdict tests something
        "probes": [[0.0, 0.0], [1.0, 0.0]],
        "expect_assumptions": dict(base_expect),
    })
    return presets


def run_assumption_check(config: ExperimentConfig) -> dict:
    """Assumption report for a config plus comparison with its expectations."""
    model = config.build_model()
    report = check_assumptions(model)
    expected = config.expect_assumptions
    mismatches = {}
    for name, want in expected.items():
        got = report[name].status
        if got != want:
            mismatches[name] = {"expected": want, "got": got}
    return {"report": report.to_json(),
            "expected": expected,
            "mismatches": mismatches,
            "passed": not mismatches}
