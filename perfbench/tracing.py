"""The traced run: spans and counters at each layer boundary of contact_hj.

Spans (name, start, end, parent, run id) are kept in memory for calls that
happen a few hundred times per driver call at most. Hot leaf calls (one
sweep, one interpolation, one Legendre evaluation, one potential
evaluation) get aggregated counters instead, which keeps the tracing
overhead to a few percent. Every wrapped call, span or counter, adds its
duration to the enclosing frame, so a span's self time is its duration minus
the time its children cover.
"""

import functools
import inspect
import time

import hooks
import workloads

_now = time.perf_counter_ns

DRIVERS = ("localization_study", "measure_study", "vanishing_discount_sweep")
SOLVES = ("solve_state_constraint", "solve_ergodic", "mane_potential",
          "estimate_critical_value", "solve_maximal_global")
TABLE = "LagrangianEvaluator.coupling_table"
DEFECTS = ("closedness_defect", "mather_defect", "selection_functional",
           "weak_limit_diagnostics")

SPAN_TARGETS = (
    [f"contact_hj.experiments:{name}" for name in DRIVERS]
    + ["contact_hj.experiments:ConvergenceReport.write",
       "contact_hj.solver:SweepKernel.__init__"]
    + [f"contact_hj.solver:{name}" for name in SOLVES]
    + ["contact_hj.trajectory:backtrace", "contact_hj.trajectory:compute_indices",
       "contact_hj.grid:GridField.to_csv"]
    + [f"contact_hj.hamiltonian:LagrangianEvaluator.{name}"
       for name in ("conjugate_speeds", "coupling_table", "partial_u_l",
                    "discount_index")]
    + [f"contact_hj.measures:{name}"
       for name in ("discounted_measure", "write_measure_csv") + DEFECTS])

COUNTER_TARGETS = ("contact_hj.solver:SweepKernel.step",
                   "contact_hj.grid:GridField.interpolate",
                   "contact_hj.hamiltonian:LagrangianEvaluator.legendre",
                   "contact_hj.hamiltonian:HamiltonianModel.f")

# per-layer metric -> unit; the order is the order of BENCHMARK.json
UNITS = {"solver.sweeps": "count"}
UNITS.update({f"solver.sweeps_per_solve.lam{lam:g}": "count"
              for lam in workloads.scheduled_lambdas()})
UNITS.update({
    "solver.sweep_ms": "ms", "solver.ns_per_node_control": "ns",
    "solver.node_controls": "count", "solver.useful_node_ratio": "ratio",
    "solver.kernel_build_s": "s", "solver.solves": "count",
    "solver.solve_s": "s",
    "trajectory.steps": "count", "trajectory.backtrace_s": "s",
    "trajectory.us_per_step": "us", "trajectory.indices_s": "s",
    "grid.interpolate_calls": "count", "grid.interpolate_us": "us",
    "grid.to_csv_s": "s",
    "hamiltonian.legendre_calls": "count", "hamiltonian.legendre_s": "s",
    "hamiltonian.f_evals": "count", "hamiltonian.table_builds": "count",
    "hamiltonian.table_build_s": "s",
    "measures.defects_s": "s", "measures.write_s": "s",
    "experiments.self_s": "s", "experiments.report_write_s": "s",
    "experiments.artifact_bytes": "bytes",
    "bench.trace_overhead_pct": "%",
})
# counts repeat exactly for the same commit and seed; the rest are timings
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")


def _short(target: str) -> str:
    return target.partition(":")[2]


class Tracer:
    """Spans and counters of one driver call, recorded from the wrappers."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        # [name, start_ns, end_ns, parent, run_id, covered_ns, attrs]
        self.spans = []
        self.counters = {_short(t): [0, 0] for t in COUNTER_TARGETS}
        self.sweeps = {}    # lam -> sweeps
        # in-mask nodes, swept nodes, and each times the controls
        self.nodes = [0, 0, 0, 0]
        self._stack = []    # open frames: [covered_ns, enclosing span index]

    def install(self) -> None:
        for target in SPAN_TARGETS:
            hooks.install(target, self._span(_short(target)))
        for target in COUNTER_TARGETS:
            hooks.install(target, self._counter(_short(target)))

    def _span(self, name: str):
        attrs_of = _SPAN_ATTRS.get(name)

        def make(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack
                parent = stack[-1][1] if stack else -1
                record = [name, 0, 0, parent, self.run_id, 0, None]
                index = len(self.spans)
                self.spans.append(record)
                frame = [0, index]
                stack.append(frame)
                start = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = _now()
                    stack.pop()
                    record[1], record[2], record[5] = start, end, frame[0]
                    if stack:
                        stack[-1][0] += end - start
                if attrs_of is not None:
                    record[6] = attrs_of(sig.bind(*args, **kwargs).arguments,
                                         result)
                return result
            return wrapper
        return make

    def _counter(self, name: str):
        tally = self._tally_sweep if name == "SweepKernel.step" else None

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = self._stack
                frame = [0, stack[-1][1] if stack else -1]
                stack.append(frame)
                start = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _now() - start
                    stack.pop()
                    counter = self.counters[name]
                    counter[0] += 1
                    counter[1] += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                if tally is not None:
                    tally(*args, **kwargs)
                return result
            return wrapper
        return make

    def _tally_sweep(self, kernel, v, lam, *args, **kwargs):
        lam = float(lam)
        self.sweeps[lam] = self.sweeps.get(lam, 0) + 1
        in_mask, swept = kernel.in_idx.size, kernel.grid.size
        controls = len(kernel.speeds)
        self.nodes[0] += in_mask
        self.nodes[1] += swept
        self.nodes[2] += in_mask * controls
        self.nodes[3] += swept * controls

    # -- per-layer metrics of one driver call --------------------------------

    def metrics(self, artifact_bytes: int) -> dict:
        def spans(*names):
            return [s for s in self.spans if s[0] in names]

        def seconds(*names):
            return sum(s[2] - s[1] for s in spans(*names)) * 1e-9

        # a solve called from inside another solve is part of its parent
        solves = [s for s in spans(*SOLVES)
                  if s[3] < 0 or self.spans[s[3]][0] not in SOLVES]
        solves_by_lam = {}
        for s in solves:
            lam = (s[6] or {}).get("lam", 0.0)
            solves_by_lam[lam] = solves_by_lam.get(lam, 0) + 1

        sweeps, sweep_ns = self.counters["SweepKernel.step"]
        interp_calls, interp_ns = self.counters["GridField.interpolate"]
        legendre_calls, legendre_ns = self.counters["LagrangianEvaluator.legendre"]
        steps = sum((s[6] or {}).get("steps", 0) for s in spans("backtrace"))
        backtrace_s = seconds("backtrace")
        drivers = spans(*DRIVERS)
        m = {"solver.sweeps": sweeps}
        for lam in workloads.scheduled_lambdas():
            n = solves_by_lam.get(lam, 0)
            m[f"solver.sweeps_per_solve.lam{lam:g}"] = (
                self.sweeps.get(lam, 0) / n if n else 0.0)
        m.update({
            "solver.sweep_ms": sweep_ns * 1e-6 / sweeps if sweeps else 0.0,
            "solver.ns_per_node_control": (sweep_ns / self.nodes[2]
                                           if self.nodes[2] else 0.0),
            "solver.node_controls": self.nodes[3],
            "solver.useful_node_ratio": (self.nodes[0] / self.nodes[1]
                                         if self.nodes[1] else 0.0),
            "solver.kernel_build_s": seconds("SweepKernel.__init__"),
            "solver.solves": len(solves),
            "solver.solve_s": sum(s[2] - s[1] for s in solves) * 1e-9,
            "trajectory.steps": steps,
            "trajectory.backtrace_s": backtrace_s,
            "trajectory.us_per_step": backtrace_s * 1e6 / steps if steps else 0.0,
            "trajectory.indices_s": seconds("compute_indices"),
            "grid.interpolate_calls": interp_calls,
            "grid.interpolate_us": interp_ns * 1e-3 / interp_calls
            if interp_calls else 0.0,
            "grid.to_csv_s": seconds("GridField.to_csv"),
            "hamiltonian.legendre_calls": legendre_calls,
            "hamiltonian.legendre_s": legendre_ns * 1e-9,
            "hamiltonian.f_evals": self.counters["HamiltonianModel.f"][0],
            "hamiltonian.table_builds": len(spans(TABLE)),
            "hamiltonian.table_build_s": seconds(TABLE),
            "measures.defects_s": seconds(*DEFECTS),
            "measures.write_s": seconds("write_measure_csv"),
            "experiments.self_s": sum(s[2] - s[1] - s[5] for s in drivers) * 1e-9,
            "experiments.report_write_s": seconds("ConvergenceReport.write"),
            "experiments.artifact_bytes": artifact_bytes,
        })
        return m

    def span_records(self) -> list:
        return [{"name": s[0], "start_ns": s[1], "end_ns": s[2], "parent": s[3],
                 "run_id": s[4], "self_ns": s[2] - s[1] - s[5], "attrs": s[6]}
                for s in self.spans]


def _solve_attrs(arguments, result):
    return {"lam": float(arguments.get("lam", 0.0))}


_SPAN_ATTRS = {name: _solve_attrs for name in SOLVES}
_SPAN_ATTRS["backtrace"] = lambda arguments, curve: {"steps": curve.segments}
