"""Command-line front end.

Exit codes: 0 when the command ran and every verdict passed, 1 when a
verdict failed, 2 for configuration or runtime errors. Overrides are applied
to the raw config dict and re-validated before any compute starts, so a
mistyped key fails fast instead of silently running defaults.
"""

import argparse
import json
import os
import sys

import numpy as np

from .experiments import (ConfigError, ExperimentConfig, _numbers, _positive,
                          builtin_models, localization_study, make_run_dir,
                          measure_study, read_config_file,
                          run_assumption_check, setup, trace_curve,
                          vanishing_discount_sweep)
from .grid import atomic_write_text
from .hamiltonian import ModelError
from .measures import (closedness_defect, default_battery,
                       discounted_measure, mather_defect, write_measure_csv)
from .solver import (CMismatchError, SolverError, estimate_critical_value,
                     mane_potential, solve_ergodic, solve_state_constraint)
from .trajectory import exponential_action, write_curve_csv

__all__ = ["main"]


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(data: dict, pairs) -> dict:
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        path, _, raw = pair.partition("=")
        keys = path.split(".")
        node = data
        for key in keys[:-1]:
            nxt = node.setdefault(key, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override path {path!r} descends into a "
                                  "non-object value")
            node = nxt
        node[keys[-1]] = _parse_value(raw)
    return data


def _load_config(args) -> ExperimentConfig:
    if args.preset:
        presets = builtin_models()
        if args.preset not in presets:
            raise ConfigError(f"unknown preset {args.preset!r}; available: "
                              + ", ".join(sorted(presets)))
        data = presets[args.preset].to_dict()
    elif args.config:
        data = read_config_file(args.config)
    else:
        raise ConfigError("give --config FILE or --preset NAME")
    _apply_overrides(data, args.set)
    if args.out:
        data["outdir"] = args.out
    for flag in ("lam", "horizon"):
        if getattr(args, flag, None) is not None:
            _positive(getattr(args, flag), "--" + flag)
    # re-validate after overrides; unknown keys die here, before compute
    return ExperimentConfig.from_dict(data)


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _pick_lam(args, config: ExperimentConfig) -> float:
    if getattr(args, "lam", None) is not None:
        return float(args.lam)
    return config.lambdas[-1]


def _pick_z(args, config: ExperimentConfig, dim: int):
    if getattr(args, "z", None) is not None:
        parts = _numbers(args.z.split(","), "--z")
        if len(parts) != dim:
            raise ConfigError(f"--z needs {dim} coordinate(s)")
        return tuple(parts) if dim == 2 else parts[0]
    probe = config.probes[0]
    return probe if dim == 2 else probe[0]


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_check(args) -> int:
    config = _load_config(args)
    result = run_assumption_check(config)
    run_dir = make_run_dir(config.outdir, "check", args.stamp)
    atomic_write_text(os.path.join(run_dir, "assumption_report.json"),
                      json.dumps(result, indent=2) + "\n")
    for check in result["report"]["checks"]:
        _say(args, f"{check['name']}: {check['status']}")
    if result["expected"]:
        ok = result["passed"]
        _say(args, "expected split matched" if ok
             else f"MISMATCH: {result['mismatches']}")
        return 0 if ok else 1
    bad = [c["name"] for c in result["report"]["checks"]
           if c["status"] == "violated"]
    if bad:
        _say(args, f"violated: {', '.join(bad)}")
    return 1 if bad else 0


def _cmd_critical(args) -> int:
    config = _load_config(args)
    kernel = setup(config)
    try:
        est = estimate_critical_value(kernel, config.lambdas,
                                      config.build_params())
    except SolverError as exc:
        print(f"critical-value estimate failed: {exc}", file=sys.stderr)
        return 1
    run_dir = make_run_dir(config.outdir, "critical", args.stamp)
    atomic_write_text(os.path.join(run_dir, "critical.json"),
                      json.dumps(est.to_json(), indent=2) + "\n")
    _say(args, f"c_est = {est.richardson:.6g} (Richardson-extrapolated; "
               f"m0 = {est.m0:.6g})")
    return 0


def _solve(args):
    """Config, kernel, discount, probe point and the state-constraint solve
    of solve, trace and measure."""
    config = _load_config(args)
    kernel = setup(config)
    lam = _pick_lam(args, config)
    z = _pick_z(args, config, kernel.grid.dim)
    out = solve_state_constraint(kernel, lam, config.c, config.build_params())
    return config, kernel, lam, z, out


def _cmd_solve(args) -> int:
    config, _, lam, _, out = _solve(args)
    run_dir = make_run_dir(config.outdir, "solve", args.stamp)
    out.field.to_csv(os.path.join(run_dir, "field.csv"))
    atomic_write_text(os.path.join(run_dir, "outcome.json"),
                      json.dumps(out.to_json(), indent=2) + "\n")
    _say(args, f"lam={lam:g}: {out.iterations} policy iterations, residual "
               f"{out.final_residual:.3e}, converged={out.converged}")
    return 0 if out.converged else 1


def _cmd_ergodic(args) -> int:
    config = _load_config(args)
    out = solve_ergodic(setup(config), config.c, config.build_params())
    run_dir = make_run_dir(config.outdir, "ergodic", args.stamp)
    out.field.to_csv(os.path.join(run_dir, "field.csv"))
    atomic_write_text(os.path.join(run_dir, "outcome.json"),
                      json.dumps(out.to_json(), indent=2) + "\n")
    _say(args, f"ergodic: {out.iterations} policy iterations, residual "
               f"{out.final_residual:.3e}")
    return 0 if out.converged else 1


def _cmd_mane(args) -> int:
    config = _load_config(args)
    kernel = setup(config)
    dim = kernel.grid.dim
    y = _pick_z(args, config, dim) if args.z else (0.0,) * dim
    if dim == 1 and isinstance(y, tuple):
        y = y[0]
    field = mane_potential(kernel, y, config.c, config.build_params())
    run_dir = make_run_dir(config.outdir, "mane", args.stamp)
    field.to_csv(os.path.join(run_dir, "field.csv"))
    _say(args, f"pinned potential written (pin {y})")
    return 0


def _cmd_trace(args) -> int:
    config, kernel, lam, z, out = _solve(args)
    field = out.field
    curve, idx, horizon = trace_curve(kernel, config, field, lam, z,
                                      args.horizon)
    run_dir = make_run_dir(config.outdir, "trace", args.stamp)
    write_curve_csv(os.path.join(run_dir, "curve.csv"), curve, idx)
    action = exponential_action(curve, idx, kernel.evaluator, lam,
                                config.c, boundary_field=field)
    vz = float(field.interpolate(z))
    summary = {"z": list(z) if isinstance(z, tuple) else z, "lambda": lam,
               "horizon": horizon, "defect_max": curve.defect_max,
               "warning": curve.warning, "field_at_z": vz, "exponential_action": action,
               "representation_residual": abs(vz - action)}
    atomic_write_text(os.path.join(run_dir, "trace.json"),
                      json.dumps(summary, indent=2) + "\n")
    _say(args, f"traced {curve.segments} steps from z={z}; representation "
               f"residual {abs(vz - action):.3e}")
    if curve.warning:
        _say(args, f"warning: {curve.warning}")
    return 0


def _cmd_measure(args) -> int:
    config, kernel, lam, z, out = _solve(args)
    curve, idx, horizon = trace_curve(kernel, config, out.field, lam, z,
                                      args.horizon)
    mu = discounted_measure(curve, idx, lam)
    battery = default_battery(kernel.grid.dim)
    run_dir = make_run_dir(config.outdir, "measure", args.stamp)
    write_measure_csv(os.path.join(run_dir, "measure.csv"), mu)
    summary = {"z": list(z) if isinstance(z, tuple) else z, "lambda": lam,
               "horizon": horizon,
               "closedness_defect": closedness_defect(mu, battery),
               "mather_defect": mather_defect(mu, kernel.evaluator,
                                              config.c),
               "support_radius": mu.support_radius,
               "weight_sum": float(np.sum(mu.weights))}
    atomic_write_text(os.path.join(run_dir, "measure.json"),
                      json.dumps(summary, indent=2) + "\n")
    _say(args, f"measure on {len(mu.weights)} atoms; closedness "
               f"{summary['closedness_defect']:.3e}, mather "
               f"{summary['mather_defect']:.3e}")
    return 0


def _run_driver(args, config, driver, experiment: str, **kwargs) -> int:
    run_dir = (make_run_dir(config.outdir, experiment, args.stamp)
               if args.stamp else None)
    report = driver(config, run_dir=run_dir, **kwargs)
    for v in report.verdicts:
        flag = "PASS" if v["passed"] else "FAIL"
        _say(args, f"{flag} {v['name']}: {v['observed']} ({v['threshold']})")
    _say(args, f"report: {report.experiment} "
               f"{'passed' if report.passed else 'FAILED'} "
               f"in {report.runtime.get('seconds', 0.0):.1f}s")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    return _run_driver(args, _load_config(args), vanishing_discount_sweep,
                       "vanishing_discount")


def _cmd_localize(args) -> int:
    config = _load_config(args)
    z = _pick_z(args, config, config.build_model().dim)
    return _run_driver(args, config, localization_study, "localization", z=z)


def _cmd_measures_study(args) -> int:
    return _run_driver(args, _load_config(args), measure_study, "measures")


_COMMANDS = {
    "check": _cmd_check,
    "critical": _cmd_critical,
    "solve": _cmd_solve,
    "ergodic": _cmd_ergodic,
    "mane": _cmd_mane,
    "trace": _cmd_trace,
    "measure": _cmd_measure,
    "sweep": _cmd_sweep,
    "localize": _cmd_localize,
    "measures-study": _cmd_measures_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contact-hj",
        description="Numerical laboratory for contact Hamilton-Jacobi "
                    "equations H(x, Du, lam*u) = c.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="builtin preset name")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, repeatable")
        p.add_argument("--out", help="output directory root")
        p.add_argument("--stamp", help="fixed run-directory name instead of "
                                       "a timestamp")
        p.add_argument("--quiet", "-q", action="store_true")
        if name in ("solve", "trace", "measure"):
            p.add_argument("--lam", type=float,
                           help="discount (default: smallest in schedule)")
        if name in ("trace", "measure", "localize", "mane"):
            p.add_argument("--z", help="probe point, comma-separated in 2D")
        if name in ("trace", "measure"):
            p.add_argument("--horizon", type=float, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CMismatchError as exc:
        print(f"configuration error: the assigned critical constant is off "
              f"(drift rate {exc.rate:+.4g}): {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError) as exc:  # cell errors, as in _guard
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
