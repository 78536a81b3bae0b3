"""Semi-Lagrangian Lax-Oleinik fixed-point solvers.

One sweep applies v'(x) = min over admissible controls a of
Δt*(L(x, a, λ*v(x)) + c) + Interp[v](x - Δt*a), with the contact argument
frozen at the current iterate (explicit treatment).

Because feet x - Δt*a lie within one cell of their node and shift every
node by the same fraction of a cell, each control's foot value is a fixed
combination of the node's 3^d stencil neighbours, in any dimension: the
candidates of a sweep are one matrix product, stencil values times a
3^d x controls table of tensor-product hat weights.

Two fixed-point loops share that sweep:

- Policy iteration (Howard's algorithm) for every solve at λ > 0 except
  separable models whose φ vanishes somewhere on the mask, and for the
  classical discounted solves. Each iteration is one argmin sweep, which
  gives the policy and the Bellman residual, and one direct solve of the
  frozen-policy system (diag - P) v = rhs by block-tridiagonal elimination
  (SweepKernel.policy_solve). For separable couplings that system is the
  frozen-policy sweep exactly. The p-coupled (arctan) sweep also reads v
  through the sup term at its own level λv, so the solve takes that term's
  exact u-slope from the piecewise-linear sup-term table: a semismooth
  Newton step. The iteration count does not grow as λ shrinks, where
  value iteration's sweep count grows like 1/(λΔt).
- Plain value iteration for the λ = 0 ergodic and pinned solves, whose
  systems are singular, and for the vanishing-φ models.

Both stop when the residual |Tv - v| falls below tol*min(1, gain), gain
the contraction margin of one sweep, or to the float floor, and report the
a-posteriori error bound residual/gain.

The iterate is the vector of in-mask values alone, and stencils point at
positions in it; out-of-mask values pass through from v0. A stencil that
reaches a node with no in-mask replacement raises SolverError.

A SweepKernel stands for one grid setup: grid, evaluator (and through it
the model), controls and time step. It is built once per grid and every
solve takes it; it holds no state from one solve to the next.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Domain, GridField, UniformGrid, tensor_points
from .hamiltonian import LagrangianEvaluator, lower_bound_m0

__all__ = [
    "ControlSet", "SolveParams", "SolveOutcome", "SweepKernel",
    "SolverError", "CMismatchError", "lax_oleinik_step",
    "solve_state_constraint", "estimate_critical_value", "solve_ergodic",
    "solve_maximal_global", "mane_potential", "aubry_indicator",
    "CriticalValueEstimate", "default_max_speed",
]

_FLOAT_FLOOR = 1e-13
_ROW_CHUNK = 1024  # in-mask rows per block of a sweep; bounds its temporaries
_SOLVE_BLOCK = 256  # rows per block of the frozen-policy solve, at most n


class SolverError(RuntimeError):
    """Solver configuration or convergence failure."""


class CMismatchError(SolverError):
    """Ergodic iteration drifts at a steady rate: the supplied c is off."""

    def __init__(self, rate: float, drift: float, iteration: int):
        super().__init__(
            f"anchor drifts at rate {rate:.6g} per unit time after burn-in "
            f"(sweep {iteration}); the supplied c appears wrong by about "
            f"{-rate:.6g}")
        self.rate = rate
        self.drift = drift
        self.iteration = iteration


def default_max_speed(dim: int) -> float:
    return 6.0 if dim == 1 else 4.0


@dataclass(frozen=True)
class ControlSet:
    """Velocity lattice: all vectors a with |a| <= max_speed, step da per axis.

    Lexicographic ordering fixes argmin tie-breaks; the zero control is always
    present and the lattice is symmetric under sign flips.
    """

    max_speed: float
    da: float
    controls: np.ndarray

    @staticmethod
    def build(dim: int, max_speed: float = None, da: float = None) -> "ControlSet":
        if max_speed is None:
            max_speed = default_max_speed(dim)
        max_speed = float(max_speed)
        if max_speed <= 0:
            raise SolverError("max_speed must be positive")
        if da is None:
            da = max_speed / (48.0 if dim == 1 else 16.0)
        da = float(da)
        if da <= 0 or da > max_speed:
            raise SolverError("control spacing must lie in (0, max_speed]")
        k = int(math.floor(max_speed / da + 1e-12))
        controls = tensor_points([da * np.arange(-k, k + 1)] * dim)
        if dim > 1:  # cut the square to the ball; 1D keeps its whole axis
            # relative slack: k*da may round just above max_speed
            keep = (np.sum(np.square(controls), axis=1)
                    <= max_speed ** 2 * (1.0 + 1e-12))
            controls = controls[keep]
        return ControlSet(max_speed=max_speed, da=da, controls=controls)

    @property
    def dim(self) -> int:
        return self.controls.shape[1]

    @property
    def speeds(self) -> np.ndarray:
        return np.sqrt(np.sum(np.square(self.controls), axis=1))


@dataclass(frozen=True)
class SolveParams:
    tol: float = 1e-8
    max_iters: int = 50000


@dataclass
class SolveOutcome:
    field: GridField
    iterations: int
    final_residual: float
    converged: bool
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"iterations": self.iterations,
                "residual": self.final_residual,
                "converged": self.converged}


class SweepKernel:
    """Stencil and weight tables of the one-cell sweep for one grid setup.

    Built once per grid and passed to every solve on it; the model is read
    from evaluator.model. dt defaults to 0.5*min(dx)/max_speed, and any dt
    must be positive and move feet at most one cell per step.
    """

    def __init__(self, grid: UniformGrid, evaluator: LagrangianEvaluator,
                 controls: ControlSet, dt: float = None):
        model = evaluator.model
        if controls.dim != grid.dim or model.dim != grid.dim:
            raise SolverError("dimension mismatch between grid/model/controls")
        self.grid = grid
        self.evaluator = evaluator
        self.controls = controls
        if dt is None:
            dt = 0.5 * min(grid.dx) / controls.max_speed
        self.dt = float(dt)
        if not all(0 < self.dt * controls.max_speed <= dx + 1e-12
                   for dx in grid.dx):
            raise SolverError(f"dt={self.dt!r} must be positive and move feet "
                              "no more than one cell per step")
        self.in_idx = np.flatnonzero(grid.mask)
        in_pts = grid.points()[self.in_idx]
        self.speeds = controls.speeds

        # the 3^d neighbours of each in-mask node, clipped to the box, mapped
        # into the mask and stored as positions into in_idx
        offsets = np.array(list(itertools.product((-1, 0, 1),
                                                  repeat=grid.dim)))
        node = np.column_stack(np.unravel_index(self.in_idx, grid.shape))
        nbrs = np.clip(node[:, None, :] + offsets,
                       0, np.array(grid.shape) - 1)
        position = np.full(grid.size, -1)
        position[self.in_idx] = np.arange(len(self.in_idx))
        self.stencil = position[grid.replacement_map[
            np.ravel_multi_index(tuple(np.moveaxis(nbrs, -1, 0)), grid.shape)]]
        outside = np.any(self.stencil < 0, axis=1)
        if np.any(outside):
            bad = in_pts[np.argmax(outside)]
            raise SolverError(
                f"stencil of node {bad.tolist()} reaches a node with no "
                "in-mask replacement; mask too thin for this grid")

        # hat weights of each control's foot offset, one column per control
        ctrl = controls.controls
        self.weights = np.ones((len(offsets), len(ctrl)))
        for k in range(grid.dim):
            delta = -self.dt * ctrl[:, k] / grid.dx[k]
            b = np.floor(delta)
            t = delta - b
            snap_hi = t > 1.0 - 1e-12
            b[snap_hi] += 1
            t[snap_hi] = 0.0
            t[t < 1e-12] = 0.0
            o = offsets[:, k, None]
            self.weights *= (np.where(o == b, 1.0 - t, 0.0)
                             + np.where(o == b + 1, t, 0.0))

        admissible = np.empty((len(in_pts), len(ctrl)), dtype=bool)
        for j, a in enumerate(ctrl):
            admissible[:, j] = grid.domain.contains(in_pts - self.dt * a,
                                                    slack=1e-9)
        covered = np.any(admissible, axis=1)
        if not np.all(covered):
            bad = in_pts[np.argmin(covered)]
            raise SolverError(
                f"no admissible control at node {bad.tolist()}; "
                "mask too thin for this control set")
        self.blocked = ~admissible
        # every stencil stays within `bandwidth` positions of its node, so
        # blocks of at least that many rows couple only to their neighbours
        self.bandwidth = int(np.max(np.abs(
            self.stencil - np.arange(len(self.in_idx))[:, None]), initial=0))
        self.block = max(self.bandwidth, min(len(self.in_idx), _SOLVE_BLOCK))

        self.f_in = model.f(in_pts)
        self.phi_in = model.phi(in_pts)
        # per-control sup term at u = 0: the whole cost for separable
        # couplings, the λ = 0 and explicit-discount cost for p-coupled ones
        self.cost = evaluator.conjugate_speeds(self.speeds)
        kappa = model.kappa_bounds(controls.max_speed)
        self.kappa_lo = max(kappa[0], 0.0)
        span = max(hi - lo for lo, hi in grid.domain.box)
        self.crossing_sweeps = int(math.ceil(
            span / (self.dt * controls.max_speed)))

    # -- one sweep ---------------------------------------------------------

    def step(self, v: np.ndarray, lam: float, c: float, mode: str = "contact",
             table=None, policy: np.ndarray = None) -> np.ndarray:
        """One Lax-Oleinik sweep: in-mask values in, in-mask values out.

        v and the result hold one value per node of in_idx, in that order;
        solves pass the out-of-mask values of their v0 through unchanged.
        mode "contact": v'(x) = min_a Δt*(L(x,a,λv(x)) + c) + I[v](x-Δt·a).
        mode "discount0":
        v'(x) = min_a Δt*(L(x,a,0) + c) + exp(-λΔt)*I[v](x-Δt·a), the
        classical discounted problem used for critical-value estimation.
        The sup term is the u = 0 row, or the table at λv when one is passed:
        p-coupled contact sweeps at λ > 0 need one (see _ensure_table).
        When policy is given, the argmin control of each node is written
        into it (first minimum in control order).
        """
        dt = self.dt
        discount = math.exp(-lam * dt) if mode == "discount0" else 1.0
        level = lam if mode == "contact" else 0.0
        best = np.empty(len(v))
        for lo in range(0, len(v), _ROW_CHUNK):
            rows = slice(lo, lo + _ROW_CHUNK)
            cand = v[self.stencil[rows]] @ self.weights
            if mode == "discount0":
                cand *= discount
            cand += dt * (self.cost if table is None
                          else table.values(level * v[rows]).T)
            np.copyto(cand, np.inf, where=self.blocked[rows])
            if policy is None:
                np.min(cand, axis=1, out=best[rows])
            else:
                pick = np.argmin(cand, axis=1)
                policy[rows] = pick
                best[rows] = cand[np.arange(len(pick)), pick]
        best += dt * (self.f_in + c)
        best -= dt * level * self.phi_in * v
        return best

    # -- one frozen-policy solve -------------------------------------------

    def policy_solve(self, policy: np.ndarray, diag: np.ndarray,
                     scale: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (diag - scale*P) v = rhs on the in-mask positions.

        Row i of P holds the hat weights of control policy[i] at stencil[i].
        With diag > scale > 0 the matrix is strictly row-diagonally dominant
        (the rows of P are nonnegative and sum to 1), so block-tridiagonal
        elimination over blocks of self.block rows needs no pivoting across
        blocks. A block couples to its neighbours only through the
        bandwidth columns next to it, so the eliminated factors are
        block x bandwidth each. Block rows are assembled one at a time.
        A singular block raises SolverError.
        """
        n, b, bw = len(rhs), self.block, self.bandwidth
        factors = []
        u_prev = z_prev = None
        for lo in range(0, n, b):
            hi = min(lo + b, n)
            c0 = max(lo - bw, 0)
            width = min(hi + bw, n) - c0
            rows = np.arange(hi - lo)
            # block row [left | mid | right] over columns c0 .. c0 + width
            flat = rows[:, None] * width + (self.stencil[lo:hi] - c0)
            vals = self.weights[:, policy[lo:hi]].T * -scale
            a = np.bincount(flat.ravel(), weights=vals.ravel(),
                            minlength=len(rows) * width).reshape(-1, width)
            a[rows, rows + (lo - c0)] += diag[lo:hi]
            left, mid = a[:, :lo - c0], a[:, lo - c0:hi - c0]
            y = rhs[lo:hi]
            if u_prev is not None:
                # left meets the last rows of the previous block only
                mid[:, :u_prev.shape[1]] -= left @ u_prev[len(u_prev) - bw:]
                y = y - left @ z_prev[len(z_prev) - bw:]
            try:
                sol = np.linalg.solve(
                    mid, np.column_stack([a[:, hi - c0:], y]))
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"frozen-policy system is singular in rows {lo}..{hi - 1}"
                    f" ({exc})") from exc
            u_prev, z_prev = sol[:, :-1], sol[:, -1]
            factors.append((lo, u_prev, z_prev))
        v = np.empty(n)
        for lo, u, z in reversed(factors):
            hi = lo + len(z)
            v[lo:hi] = z - u @ v[hi:hi + u.shape[1]]
        return v


def _ensure_table(kernel: SweepKernel, table, lam: float, v: np.ndarray,
                  mode: str = "contact"):
    """(Re)build the sup-term table when the iterate's u-range escapes it.

    Only p-coupled contact sweeps at λ > 0 read one."""
    if mode != "contact" or lam == 0.0 \
            or kernel.evaluator.model.coupling.separable:
        return None
    u = lam * v
    lo, hi = float(np.min(u)), float(np.max(u))
    pad = 0.25 * max(hi - lo, 1.0)
    if table is None or not table.covers(lo, hi):
        table = kernel.evaluator.coupling_table(
            kernel.speeds, lo - pad, hi + pad)
    return table


def _gain(kernel: SweepKernel, lam: float, mode: str) -> float:
    """Contraction margin of one sweep: 1 - its Lipschitz factor, or 1."""
    if mode == "discount0":
        return -math.expm1(-lam * kernel.dt)
    if lam > 0 and kernel.kappa_lo > 0:
        return lam * kernel.kappa_lo * kernel.dt
    return 1.0


def _fixed_point(kernel: SweepKernel, v0: np.ndarray, lam: float, c: float,
                 params: SolveParams, mode: str = "contact", pin_pos=None,
                 anchor_pos=None):
    """Fixed point of the sweep on the in-mask values of v0.

    pin_pos and anchor_pos index those values; params None means the
    defaults. Solves at λ > 0 go to policy iteration, except separable ones
    whose φ vanishes somewhere on the mask; those and the λ = 0 solves go to
    value iteration. Returns a copy of v0 with the in-mask values replaced.
    """
    params = params or SolveParams()
    v = np.asarray(v0, dtype=float).ravel()[kernel.in_idx]
    coupling = kernel.evaluator.model.coupling
    howard = mode == "discount0" or (lam > 0 and (
        not coupling.separable or float(np.min(kernel.phi_in)) > 0))
    if howard:
        v, it, res, converged, extras = _policy_iterate(
            kernel, v, lam, c, params, mode)
    else:
        v, it, res, converged, extras = _iterate(
            kernel, v, lam, c, params, pin_pos=pin_pos, anchor_pos=anchor_pos)
    out = np.array(v0, dtype=float).ravel()
    out[kernel.in_idx] = v
    return out, it, res, converged, extras


def _policy_iterate(kernel: SweepKernel, v: np.ndarray, lam: float, c: float,
                    params: SolveParams, mode: str):
    """Howard's algorithm: argmin sweep, then the frozen-policy solve.

    Under the policy π of the sweep at v, node i's sup term is read as
    w_i + s_i*λ*(v'_i - v_i): w and s are the value and exact u-slope of
    the sup-term table at (λv_i, π_i), or cost[π] and 0 where no table is
    read (separable couplings, discount0). The fixed point of that sweep
    solves (diag - scale*P) v' = rhs, diag = 1 + Δtλ(φ - s) and rhs =
    Δt(f + c + w - λsv), with λ = 0 there and scale exp(-λΔt) for
    discount0. With s = 0 this is the exact frozen-policy solve, otherwise
    a semismooth Newton step; ∂_u W < 0 keeps diag > 1.
    """
    dt = kernel.dt
    gain = _gain(kernel, lam, mode)
    target = params.tol * min(1.0, gain)
    if mode == "discount0":
        level, scale = 0.0, math.exp(-lam * dt)
    else:
        level, scale = lam, 1.0
    base = dt * (kernel.f_in + c)
    policy = np.empty(len(v), dtype=np.intp)
    table = None
    res = math.inf
    converged = False
    it = 0
    for it in range(1, params.max_iters + 1):
        table = _ensure_table(kernel, table, lam, v, mode)
        v_new = kernel.step(v, lam, c, mode=mode, table=table, policy=policy)
        res = float(np.max(np.abs(v_new - v)))
        converged = res <= target or res <= _FLOAT_FLOOR * max(
            1.0, float(np.max(np.abs(v_new))))
        if converged or it == params.max_iters:
            v = v_new
            break
        if table is None:
            w, s = kernel.cost[policy], 0.0
        else:
            w, s = table.value_and_slope(lam * v, policy)
        v = kernel.policy_solve(policy, 1.0 + dt * level * (kernel.phi_in - s),
                                scale, base + dt * (w - level * s * v))
    return v, it, res, converged, {"method": "policy",
                                   "error_bound": res / gain}


def _iterate(kernel: SweepKernel, v: np.ndarray, lam: float, c: float,
             params: SolveParams, mode: str = "contact", pin_pos=None,
             anchor_pos=None):
    """Plain value iteration, for sweeps that read no sup-term table.

    Solves route only contact sweeps here; mode "discount0" stays as the
    reference that policy iteration is tested against. With an anchor, a
    steady drift after burn-in raises CMismatchError.
    """
    if pin_pos is not None:
        v[pin_pos] = 0.0
    if anchor_pos is not None:
        v -= v[anchor_pos]
    dt = kernel.dt
    gain = _gain(kernel, lam, mode)
    target = params.tol * min(1.0, gain)
    burn_in = 2 * kernel.crossing_sweeps + 200
    res = math.inf
    converged = False
    it = 0
    drift_rate = None
    for it in range(1, params.max_iters + 1):
        v_new = kernel.step(v, lam, c, mode=mode)
        if pin_pos is not None:
            v_new[pin_pos] = 0.0
        drift = None
        if anchor_pos is not None:
            drift = float(v_new[anchor_pos])
            v_new -= drift
            drift_rate = drift / dt
        res = float(np.max(np.abs(v_new - v)))
        if drift is not None and it > burn_in \
                and abs(drift) > 10.0 * params.tol \
                and res < 2.0 * abs(drift) + 1e-15:
            raise CMismatchError(rate=drift / dt, drift=drift, iteration=it)
        v = v_new
        converged = res <= target or res <= _FLOAT_FLOOR * max(
            1.0, float(np.max(np.abs(v))))
        if converged:
            break
    return v, it, res, converged, {"method": "value",
                                   "error_bound": res / gain,
                                   "drift_rate": drift_rate}


# ---------------------------------------------------------------------------
# public operations


def lax_oleinik_step(kernel: SweepKernel, v: GridField, lam: float,
                     c: float) -> GridField:
    """One sweep of the operator on a field; mainly a testing surface."""
    out = v.values.copy()
    v_in = out.flat[kernel.in_idx]
    table = _ensure_table(kernel, None, lam, v_in)
    out.flat[kernel.in_idx] = kernel.step(v_in, lam, c, table=table)
    return v.with_values(out)


def solve_state_constraint(kernel: SweepKernel, lam: float, c: float,
                           params: SolveParams = None,
                           v0: np.ndarray = None) -> SolveOutcome:
    """State-constrained contact solve on the kernel's domain; needs λ > 0."""
    if lam <= 0:
        raise SolverError("state-constraint solve needs lam > 0")
    if kernel.evaluator.model.coupling.kind == "none":
        raise SolverError("state-constraint solve needs a u-coupling")
    grid = kernel.grid
    start = np.zeros(grid.size) if v0 is None else np.asarray(v0).ravel()
    v, iters, res, ok, extras = _fixed_point(kernel, start, lam, c, params)
    fld = GridField(grid, v.reshape(grid.shape),
                    meta={"kind": "state_constraint", "lambda": lam, "c": c})
    return SolveOutcome(fld, iters, res, ok, extras)


@dataclass
class CriticalValueEstimate:
    table: list  # (lam, c_est) pairs
    richardson: float
    m0: float
    margin: float
    outcomes: list = field(default_factory=list)

    def to_json(self) -> dict:
        # "value" stays for readers of critical.json that predate "richardson"
        return {"value": self.richardson,
                "table": [{"lambda": l, "c_est": e} for l, e in self.table],
                "richardson": self.richardson, "m0": self.m0,
                "margin": self.margin}


def estimate_critical_value(kernel: SweepKernel, lam_sequence,
                            params: SolveParams = None, x0=None,
                            margin: float = 0.02) -> CriticalValueEstimate:
    """Estimate c(H) from classical discounted solves at vanishing λ.

    Solves λv + H(x, Dv, 0) = 0 for each λ (explicit discount factor on the
    foot term), reads off -λ*v_λ(x0), and Richardson-extrapolates the last
    two entries assuming a linear-in-λ error. The sampled lower bound m0 =
    max_x min_p H(x, p, 0) guards against gross failures: an estimate below
    m0 - margin raises.
    """
    lams = [float(l) for l in lam_sequence]
    if len(lams) < 2 or any(b >= a for a, b in zip(lams, lams[1:])):
        raise SolverError("lam_sequence must be strictly decreasing, >= 2 long")
    if lams[-1] <= 0:
        raise SolverError("lam_sequence must be positive")
    grid = kernel.grid
    if x0 is None:
        x0 = np.zeros(grid.dim)
    table = []
    outcomes = []
    start = np.zeros(grid.size)
    for lam in lams:
        v, iters, res, ok, extras = _fixed_point(kernel, start, lam, 0.0,
                                                 params, mode="discount0")
        if not ok:
            raise SolverError(
                f"discounted solve at lam={lam:g} stalled at residual {res:g}")
        fld = GridField(grid, v.reshape(grid.shape),
                        meta={"kind": "discounted", "lambda": lam, "c": 0.0})
        c_est = -lam * fld.interpolate(np.reshape(x0, (1, -1)))[0]
        table.append((lam, float(c_est)))
        outcomes.append(SolveOutcome(fld, iters, res, ok, extras))
        start = v  # warm start the next, smaller λ
    (l1, e1), (l2, e2) = table[-2], table[-1]
    richardson = e2 + l2 * (e2 - e1) / (l1 - l2)
    m0 = lower_bound_m0(kernel.evaluator.model,
                        grid.points()[grid.mask.ravel()])
    if richardson < m0 - margin:
        raise SolverError(
            f"critical value estimate {richardson:.6g} sits below the lower "
            f"bound m0={m0:.6g} by more than {margin:g}")
    return CriticalValueEstimate(table=table, richardson=float(richardson),
                                 m0=float(m0), margin=margin,
                                 outcomes=outcomes)


def solve_ergodic(kernel: SweepKernel, c: float, params: SolveParams = None,
                  anchor=None, v0: np.ndarray = None) -> SolveOutcome:
    """Ergodic (λ=0) solve renormalized at an anchor point each sweep.

    Raises CMismatchError when, after the information has had time to cross
    the domain, the anchor keeps drifting at a steady rate: that rate is the
    gap between the supplied c and the grid's own critical value.
    """
    grid = kernel.grid
    if anchor is None:
        anchor = np.zeros(grid.dim)
    anchor_idx = np.ravel_multi_index(grid.nearest_node(anchor), grid.shape)
    if not grid.mask.flat[anchor_idx]:
        raise SolverError("anchor lies outside the mask")
    start = np.zeros(grid.size) if v0 is None else np.asarray(v0).ravel()
    v, iters, res, ok, extras = _fixed_point(
        kernel, start, 0.0, c, params,
        anchor_pos=np.searchsorted(kernel.in_idx, anchor_idx))
    fld = GridField(grid, v.reshape(grid.shape),
                    meta={"kind": "ergodic", "lambda": 0.0, "c": c})
    return SolveOutcome(fld, iters, res, ok, extras)


def solve_maximal_global(evaluator: LagrangianEvaluator, controls: ControlSet,
                         lam: float, c: float, r_schedule, probe,
                         params: SolveParams = None, box=None, shape=None,
                         stab_tol: float = 1e-3) -> SolveOutcome:
    """Maximal-solution proxy: state-constraint solves on growing balls.

    Solves on each radius of the schedule (warm-starting from the previous
    ball, one kernel per radius) until the probe value provably moves less
    than stab_tol between consecutive radii: the move plus both solves'
    error bounds must stay below it, so a stab_tol under the solver's
    accuracy never stabilizes. No stabilization across the whole schedule
    is reported in the outcome, not raised.
    """
    radii = [float(r) for r in r_schedule]
    if len(radii) < 2 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise SolverError("r_schedule must be strictly increasing, >= 2 long")
    dim = evaluator.model.dim
    if box is None:
        half = radii[-1] + 2.0
        box = ((-half, half),) * dim
    if shape is None:
        per_unit = 20 if dim == 1 else 13
        shape = tuple(int(round((hi - lo) * per_unit)) + 1 for lo, hi in box)
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    history = []
    outcome = None
    stabilized_at = None
    prev_bound = None
    for r in radii:
        kernel = SweepKernel(UniformGrid(Domain.ball(box, r), shape),
                             evaluator, controls)
        # solves pass out-of-mask values through, so nodes new to this
        # ball start from the zeros of the first start vector
        v0 = None if outcome is None else outcome.field.values
        outcome = solve_state_constraint(kernel, lam, c, params=params, v0=v0)
        val = float(outcome.field.interpolate(probe[None, :])[0])
        history.append((r, val))
        bound = outcome.extras["error_bound"]
        if prev_bound is not None and abs(history[-1][1] - history[-2][1]) \
                + prev_bound + bound < stab_tol:
            stabilized_at = r
            break
        prev_bound = bound
    outcome.field.meta["kind"] = "maximal_truncated"
    outcome.field.meta["R"] = history[-1][0]
    outcome.extras["stabilization"] = history
    outcome.extras["stabilized"] = stabilized_at is not None
    outcome.extras["stabilized_at"] = stabilized_at
    return outcome


def mane_potential(kernel: SweepKernel, y, c: float,
                   params: SolveParams = None) -> GridField:
    """Intrinsic semi-distance S(., y): pinned λ=0 value iteration.

    Initialized at +1e6 off the pin so values relax downward onto the
    cheapest path costs from y at the critical level c.
    """
    grid = kernel.grid
    pin = np.ravel_multi_index(grid.nearest_node(y), grid.shape)
    if not grid.mask.flat[pin]:
        raise SolverError("pin point lies outside the mask")
    start = np.full(grid.size, 1e6)
    start[pin] = 0.0
    v, iters, res, ok, extras = _fixed_point(
        kernel, start, 0.0, c, params,
        pin_pos=np.searchsorted(kernel.in_idx, pin))
    if not ok:
        raise SolverError(
            f"pinned solve did not settle (residual {res:g} after {iters} "
            "sweeps)")
    return GridField(grid, v.reshape(grid.shape),
                     meta={"kind": "mane", "lambda": 0.0, "c": c})


def aubry_indicator(kernel: SweepKernel, c: float, sample_points,
                    params: SolveParams = None) -> np.ndarray:
    """One-step improvement defect of S(., y) at its own pin, per sample.

    Vanishing defect (up to grid error) marks y as an Aubry-set candidate:
    no control improves on sitting at y when the running cost is L + c.
    """
    grid, dt = kernel.grid, kernel.dt
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    if grid.dim == 1 and pts.shape[0] == 1 and pts.shape[1] > 1:
        pts = pts.T
    out = np.empty(len(pts))
    ctrl = kernel.controls.controls
    for i, y in enumerate(pts):
        s_field = mane_potential(kernel, y, c, params=params)
        node = grid.node_point(grid.nearest_node(y))
        feet = node[None, :] - dt * ctrl
        ok = grid.domain.contains(feet, slack=1e-9)
        lvals = kernel.evaluator.legendre(node[None, :], ctrl, 0.0)
        interp = np.full(len(ctrl), np.inf)
        interp[ok] = s_field.interpolate(feet[ok])
        cand = dt * (lvals + c) + interp
        out[i] = float(np.min(cand))  # S(y) = 0 at the pin by construction
    return out
