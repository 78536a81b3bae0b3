"""Correctness check and failure accounting for one driver call.

The operations of a driver call are its solves, its cells (one row of the
workload's cell table each) and the report as a whole. A solve fails when it
does not converge or its field disagrees with the reference; a cell fails
when its status is not ``ok`` or its row disagrees with the reference; the
report fails when a verdict goes from pass to fail, when any other table
disagrees with the reference, or when a discounted measure's weights do not
sum to 1. Verdicts that already fail in the reference are reference values,
not failures.

Tolerances come from the solver: a field value may move by ten times the
larger of ``solver.tol`` and the a-posteriori error bound its solves report.
Values computed from traced curves may move by TRACE_FACTOR times that: a
curve picks the first control that minimises the one-step cost, and a near
tie could flip under a field change. Perturbing every solved field by noise
of 100 * tol moved no control choice and moved those values by at most
1.6e-6 (``make_reference.py --perturb 1e-6``).
"""

import functools
import json
import math

import numpy as np

import hooks

TRACE_FACTOR = 100.0
WEIGHT_SUM_TOL = 1e-9
FIELD_SAMPLES = 9

# columns whose value depends on the iteration, not on the fixed point;
# convergence is checked on the solve itself
SKIP_COLUMNS = {"iterations", "residual"}
FIELD_COLUMNS = {"u_at_z", "theta_at_z", "gap", "window_sup_diff",
                 "window_max_lambda_u"}
TRACE_COLUMNS = {"closedness", "mather", "support_mean_dist", "functional",
                 "closedness_exponent", "discrepancy"}
FIELD_TABLES = {"profiles", "limit_proxy"}

RECORDED_SOLVES = ("solve_state_constraint", "solve_ergodic", "mane_potential")


class Recorder:
    """Keeps what the report drops: every solve's outcome and measure weights.

    It wraps a handful of calls per driver call and takes no timings, so it
    stays installed in the untraced runs.
    """

    def __init__(self):
        self.solves = []
        self.weight_sums = []
        self._undo = []

    def install(self) -> None:
        for name in RECORDED_SOLVES:
            self._undo += hooks.install(f"contact_hj.solver:{name}",
                                        functools.partial(self._wrap_solve, name))
        self._undo += hooks.install("contact_hj.measures:discounted_measure",
                                    self._wrap_measure)

    def uninstall(self) -> None:
        hooks.uninstall(self._undo)
        self._undo = []

    def _wrap_solve(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            # mane_potential returns the field and raises when it does not settle
            field = getattr(result, "field", result)
            extras = getattr(result, "extras", {})
            in_mask = np.flatnonzero(field.grid.mask.ravel())
            pick = in_mask[np.linspace(0, len(in_mask) - 1,
                                       FIELD_SAMPLES).round().astype(int)]
            self.solves.append({
                "solve": name,
                "lam": float(field.meta.get("lambda", 0.0)),
                "converged": bool(getattr(result, "converged", True)),
                "residual": getattr(result, "final_residual", None),
                "error_bound": extras.get("error_bound"),
                "samples": field.values.ravel()[pick].tolist()})
            return result
        return wrapper

    def _wrap_measure(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mu = fn(*args, **kwargs)
            self.weight_sums.append(float(np.sum(mu.weights)))
            return mu
        return wrapper


def outputs(report, recorder: Recorder) -> dict:
    """Everything the check compares, as it reads back from JSON."""
    return json.loads(json.dumps({
        "tables": report.tables,
        "verdicts": [[v["name"], v["passed"]] for v in report.verdicts],
        "solves": recorder.solves,
        "weight_sums": recorder.weight_sums}))


def op_count(out: dict, cell_table: str) -> int:
    return len(out["solves"]) + len(out["tables"][cell_table]["rows"]) + 1


def field_tolerance(solver_tol: float, *runs) -> float:
    """Ten times the largest of tol and the error bounds of the solves."""
    bounds = [solver_tol]
    for out in runs:
        for s in out["solves"]:
            # lam = 0 solves have no contraction; their residual stands in
            b = s["error_bound"] if s["lam"] > 0 else s["residual"]
            if b is not None and math.isfinite(b):
                bounds.append(b)
    return 10.0 * max(bounds)


def _kind(table: str, column: str, row) -> str:
    if column in SKIP_COLUMNS or (table == "limit_proxy"
                                  and "residual" in str(row[0])):
        return "skip"
    if column in TRACE_COLUMNS:
        return "trace"
    if column in FIELD_COLUMNS or table in FIELD_TABLES:
        return "field"
    return "exact"


def _differs(got, want, kind: str, field_tol: float) -> bool:
    if kind == "skip":
        return False
    numbers = (int, float)
    if isinstance(got, numbers) and isinstance(want, numbers) \
            and not isinstance(got, bool) and not isinstance(want, bool):
        if kind == "exact":
            return not (got == want or (math.isnan(got) and math.isnan(want)))
        tol = field_tol if kind == "field" else TRACE_FACTOR * field_tol
        return not abs(got - want) <= tol
    return got != want


def _row_problems(table: str, columns, got, want, field_tol) -> list:
    if len(got) != len(want):
        return [f"{table}: row has {len(got)} values, reference {len(want)}"]
    return [f"{table}.{col} = {g!r}, reference {w!r}"
            for col, g, w in zip(columns, got, want)
            if _differs(g, w, _kind(table, col, want), field_tol)]


def compare(out: dict, ref: dict, cell_table: str, solver_tol: float):
    """Returns (attempted, failed, problems) for one driver call.

    ref is None at sizes that have no reference; then only convergence,
    cell status and weight sums are checked.
    """
    problems = []
    failed = 0
    field_tol = field_tolerance(solver_tol, out, *([ref] if ref else []))

    ref_solves = ref["solves"] if ref else [None] * len(out["solves"])
    report_problems = []
    if len(ref_solves) != len(out["solves"]):
        report_problems.append(f"{len(out['solves'])} solves, reference "
                               f"{len(ref_solves)}")
        ref_solves = [None] * len(out["solves"])
    for i, (s, r) in enumerate(zip(out["solves"], ref_solves)):
        bad = [] if s["converged"] else ["did not converge"]
        if r is not None:
            diff = max(abs(a - b) for a, b in zip(s["samples"], r["samples"]))
            if s["lam"] != r["lam"] or not diff <= field_tol:
                bad.append(f"lam {s['lam']:g} field differs by {diff:.3g} "
                           f"(tolerance {field_tol:.3g})")
        if bad:
            failed += 1
            problems.append(f"solve {i} ({s['solve']}): " + "; ".join(bad))

    cells = out["tables"][cell_table]
    status_col = cells["columns"].index("status")
    ref_rows = ref["tables"][cell_table]["rows"] if ref else None
    if ref_rows is not None and len(ref_rows) != len(cells["rows"]):
        report_problems.append(f"{cell_table} has {len(cells['rows'])} rows, "
                               f"reference {len(ref_rows)}")
        ref_rows = None
    for i, row in enumerate(cells["rows"]):
        bad = [] if row[status_col] == "ok" else [f"status {row[status_col]}"]
        if ref_rows is not None:
            bad += _row_problems(cell_table, cells["columns"], row,
                                 ref_rows[i], field_tol)
        if bad:
            failed += 1
            problems.append(f"cell {i}: " + "; ".join(bad))

    for total in out["weight_sums"]:
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            report_problems.append(f"measure weights sum to {total!r}")
    if ref is not None:
        if set(out["tables"]) != set(ref["tables"]):
            report_problems.append(f"tables {sorted(out['tables'])}, reference "
                                   f"{sorted(ref['tables'])}")
        for name, tab in out["tables"].items():
            if name == cell_table or name not in ref["tables"]:
                continue
            want = ref["tables"][name]["rows"]
            if len(want) != len(tab["rows"]):
                report_problems.append(f"{name} has {len(tab['rows'])} rows, "
                                       f"reference {len(want)}")
                continue
            for got_row, want_row in zip(tab["rows"], want):
                report_problems += _row_problems(name, tab["columns"], got_row,
                                                 want_row, field_tol)
        if [v[0] for v in out["verdicts"]] != [v[0] for v in ref["verdicts"]]:
            report_problems.append("verdict names differ from the reference")
        else:
            report_problems += [
                f"verdict {name} went from pass to fail"
                for (name, passed), (_, was) in zip(out["verdicts"],
                                                    ref["verdicts"])
                if was and not passed]
    if report_problems:
        failed += 1
        problems.append("report: " + "; ".join(report_problems))
    return op_count(out, cell_table), failed, problems
