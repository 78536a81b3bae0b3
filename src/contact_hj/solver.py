"""Semi-Lagrangian Lax-Oleinik fixed-point solvers.

One sweep operator runs every solve: v'(x) = min over admissible controls a
of Δt*(L(x, a, λ*v(x)) + c) + e^{-δΔt}*Interp[v](x - Δt*a), the contact
argument frozen at the current iterate (explicit treatment). Contact solves
take δ = 0; the classical λv + H(x, Dv, 0) = 0 behind the critical value
takes level 0 and δ = λ.

Because feet x - Δt*a lie within one cell of their node and shift every
node by the same fraction of a cell, each control's foot value is a fixed
combination of the node's 3^d stencil neighbours, in any dimension: the
candidates of a sweep are one matrix product, stencil values times a
3^d x controls table of tensor-product hat weights.

One fixed-point loop, policy iteration (Howard's algorithm), runs every
solve and builds its outcome. Each iteration is one argmin sweep, which
gives the policy and the Bellman residual, and one direct solve of the
frozen-policy system (SweepKernel.policy_solve; see _policy_iterate). That
solve is block-tridiagonal elimination over blocks sized to the grid's own
bandwidth, the reach of the stencil entries whose neighbour lies in the
mask; a policy that weighs a boundary entry the mask replacement sends
further widens the band to it for that solve. The same elimination solves
for A^-1 1, which bounds the system's condition, and a system singular to
working precision raises SolverError. The iteration count does not grow as
λ shrinks, where value iteration's sweep count grows like 1/(λΔt). Rows
that would make that system singular are held at the node's current
value: the pin of the pinned solve, the Aubry nodes of the ergodic one,
and nodes whose undiscounted sweep stays put and returns its own value
bit for bit (φ = 0 at λ > 0, rounding ties at a well), which value
iteration leaves where they are too. At λ = 0 the least cost per unit time
of staying put is the exact drift rate, zero at the grid's critical value;
a c off it raises CMismatchError before any sweep.

The loop stops when the residual |Tv - v| falls below tol*min(1, gain),
gain the contraction margin of one sweep, or to the float floor, and
reports residual/gain as "error_bound". It bounds the error where one
sweep contracts (λ > 0 with κ_lo > 0, or δ > 0), κ_lo the least φ over
the in-mask nodes. At λ = δ = 0 and for φ that vanishes on a node gain is
1 and it is the residual of the discrete fixed point, not a contraction
bound.

The iterate is the vector of in-mask values alone, and stencils point at
positions in it; out-of-mask values pass through from v0. A stencil that
reaches a node with no in-mask replacement raises SolverError.
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
    "CriticalValueEstimate",
]

_FLOAT_FLOOR = 1e-13
_ROW_CHUNK = 1024  # in-mask rows per block of a sweep; bounds its temporaries
_FOOT_CHUNK = 1 << 16  # feet per block of the kernel's admissibility test
_SOLVE_BLOCK = 64  # rows per block of the frozen-policy solve, at most n
_SINGULAR_COND = 1e12  # condition bound of a solve taken as singular


class SolverError(RuntimeError):
    """Solver configuration or convergence failure."""


class CMismatchError(SolverError):
    """The supplied c is off the grid's critical value.

    rate is the least cost per unit time of staying put, f + c + W(0) over
    the in-mask nodes: the exact drift of the λ = 0 sweep, which vanishes
    at the grid's critical value.
    """

    def __init__(self, rate: float):
        super().__init__(f"the least cost per unit time of staying put is "
                         f"{rate:.6g}, not 0")
        self.rate = rate


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
            max_speed = 6.0 if dim == 1 else 4.0
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

    def settled(self, what: str) -> "SolveOutcome":
        """self, or SolverError naming the residual and iteration count."""
        if not self.converged:
            raise SolverError(f"{what} did not settle (residual "
                              f"{self.final_residual:g} after "
                              f"{self.iterations} policy iterations)")
        return self


class SweepKernel:
    """Stencil and weight tables of the one-cell sweep for one grid setup:
    grid, evaluator (and through it the model), controls and time step.

    Built once per grid and passed to every solve on it, it holds no state
    from one solve to the next. dt defaults to 0.5*min(dx)/max_speed; any
    dt must be positive and move feet at most one cell per step.
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
        raw = np.ravel_multi_index(tuple(np.moveaxis(nbrs, -1, 0)), grid.shape)
        position = np.full(grid.size, -1)
        position[self.in_idx] = np.arange(len(self.in_idx))
        self.stencil = position[grid.replacement_map[raw]]
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

        self.blocked = np.empty((len(in_pts), len(ctrl)), dtype=bool)
        rows = max(1, _FOOT_CHUNK // len(ctrl))
        for lo in range(0, len(in_pts), rows):
            feet = in_pts[lo:lo + rows, None] - self.dt * ctrl[None]
            self.blocked[lo:lo + rows] = ~grid.domain.contains(
                feet.reshape(-1, grid.dim), slack=1e-9).reshape(len(feet), -1)
        stuck = np.all(self.blocked, axis=1)
        if np.any(stuck):
            bad = in_pts[np.argmax(stuck)]
            raise SolverError(
                f"no admissible control at node {bad.tolist()}; "
                "mask too thin for this control set")
        # the bandwidth of the frozen-policy solve: the farthest reach of a
        # stencil entry whose raw neighbour lies in the mask. The entries
        # that replacement_map sends further are far (see policy_solve).
        reach = np.abs(self.stencil - np.arange(len(in_pts))[:, None])
        bw = self.bandwidth = int(reach[grid.mask.ravel()[raw]].max(initial=0))
        rows, slots = (reach > bw).nonzero()
        self.far = rows, slots, self.stencil[rows, slots]
        self._layout = self._band_layout(bw)
        self.block = self._layout[0][0][1]  # rows per block, the last aside

        with np.errstate(all="ignore"):
            self.f_in = model.f(in_pts)
            self.phi_in = model.phi(in_pts)
        for name, vals in (("potential f", self.f_in),
                           ("coupling factor phi", self.phi_in)):
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                raise SolverError(f"{name} is not finite at node "
                                  f"{in_pts[bad[0]].tolist()}")
        # per-control sup term at u = 0: the whole cost for separable
        # couplings, the λ = 0 and explicit-discount cost for p-coupled ones
        self.cost = evaluator.conjugate_speeds(self.speeds)
        # du_H >= phi on the nodes, every momentum term nondecreasing in u
        self.kappa_lo = max(float(np.min(self.phi_in)), 0.0)
        # Curves read phi between nodes, where it may dip below the node
        # minimum by up to about an eighth of its second differences. A node
        # minimum no larger than their sum over the axes may hide a zero, so
        # the traces' tail rule takes no margin there.
        phi = np.full(grid.size, np.nan)
        phi[self.in_idx] = self.phi_in
        d2 = [np.abs(np.diff(phi.reshape(grid.shape), n=2, axis=k))
              for k in range(grid.dim)]  # nan where a node leaves the mask
        curv = sum(float(np.max(d, initial=0.0, where=d >= 0)) for d in d2)
        self.trace_kappa = self.kappa_lo if self.kappa_lo > curv else 0.0
        self.stay = int(np.flatnonzero(~np.any(ctrl, axis=1))[0])  # a = 0

    # -- one sweep ---------------------------------------------------------

    def step(self, v: np.ndarray, lam: float, c: float, discount: float = 0.0,
             table=None, policy: np.ndarray = None) -> np.ndarray:
        """One Lax-Oleinik sweep: in-mask values in, in-mask values out.

        v'(x) = min_a Δt*(L(x,a,λv(x)) + c) + exp(-δΔt)*I[v](x-Δt·a), δ the
        discount: 0 for contact solves, λ of the classical discounted
        problem (swept at λ = 0) for critical-value estimation.
        v and the result hold the in-mask values, in the order of in_idx.
        The sup term is the u = 0 row, or the table at λv when one is passed:
        p-coupled sweeps at λ > 0 need one (see _ensure_table).
        When policy is given, the argmin control of each node is written
        into it (first minimum in control order).
        """
        dt = self.dt
        scale = math.exp(-discount * dt)
        best = np.empty(len(v))
        for lo in range(0, len(v), _ROW_CHUNK):
            rows = slice(lo, lo + _ROW_CHUNK)
            cand = v[self.stencil[rows]] @ self.weights
            if discount:
                cand *= scale
            cand += dt * (self.cost if table is None
                          else table.values(lam * v[rows]).T)
            np.copyto(cand, np.inf, where=self.blocked[rows])
            if policy is None:
                np.min(cand, axis=1, out=best[rows])
            else:
                pick = np.argmin(cand, axis=1)
                policy[rows] = pick
                best[rows] = cand[np.arange(len(pick)), pick]
        best += dt * (self.f_in + c)
        best -= dt * lam * self.phi_in * v
        return best

    # -- one frozen-policy solve -------------------------------------------

    def _band_layout(self, bw: int):
        """Blocks and scatter indices of the frozen-policy solve at band
        width bw, at least the bandwidth.

        Blocks hold _SOLVE_BLOCK rows, or bw where that is wider, so a block
        couples only to its neighbours. Each block's scatter indices place
        stencil entries, then the diagonal, with the far entries that reach
        past bw sent to a spare slot past the block.
        """
        n = len(self.stencil)
        index = np.arange(n)
        b = max(bw, min(n, _SOLVE_BLOCK))
        # first row, end row, first column and width of each block row
        blocks = [(lo, min(lo + b, n), max(lo - bw, 0),
                   min(lo + b + bw, n) - max(lo - bw, 0))
                  for lo in range(0, n, b)]
        lo, hi, c0, width = np.repeat(
            blocks, [hi - lo for lo, hi, _, _ in blocks], axis=0).T
        flat = np.concatenate((self.stencil, index[:, None]), axis=1)
        flat += ((index - lo) * width - c0)[:, None]
        rows, slots, cols = self.far
        beyond = np.abs(cols - rows) > bw
        rows, slots = rows[beyond], slots[beyond]
        flat[rows, slots] = ((hi - lo) * width)[rows]
        return blocks, flat.ravel()

    def policy_solve(self, policy: np.ndarray, diag: np.ndarray,
                     scale: float, rhs: np.ndarray) -> np.ndarray:
        """Solve A v = rhs, A = diag - scale*P, on the in-mask positions.

        Row i of P holds the hat weights of control policy[i] at stencil[i].
        Block-tridiagonal elimination solves it over blocks sized to the
        bandwidth. A far entry that this policy weighs widens the band to
        its reach, for this solve only; the far entries left past the band
        then weigh 0.

        With diag >= scale > 0, A is a weakly diagonally dominant Z-matrix.
        Such a matrix is nonsingular exactly when every row reaches a
        strictly dominant row along its entries, and then A^-1 >= 0
        (Azimzadeh & Forsyth, SIAM J. Numer. Anal. 2016), so the blocks need
        no pivoting across them. The elimination also solves A w = 1: max w
        is the max-norm of A^-1, and max(diag) + scale bounds that of A. A
        singular block, or rows where (max(diag) + scale)*|w| is not below
        _SINGULAR_COND, raise SolverError naming the rows.
        """
        n = len(rhs)
        rows, slots, cols = self.far
        live = self.weights[slots, policy[rows]] > 0
        bw, (blocks, flat) = self.bandwidth, self._layout
        if np.any(live):
            bw = int(np.max(np.abs(cols[live] - rows[live])))
            blocks, flat = self._band_layout(bw)
        # per row, the entries that the blocks' scatter indices place
        per_row = self.stencil.shape[1] + 1
        entries = np.empty((n, per_row))
        np.multiply(self.weights.T[policy], -scale, out=entries[:, :-1])
        entries[:, -1] = diag
        rhs_w = np.ones((n, 2))  # the right-hand sides of v and w
        rhs_w[:, 0] = rhs
        factors = []
        u_prev = z_prev = None
        for lo, hi, c0, width in blocks:
            size = (hi - lo) * width
            # block row [left | mid | right] over columns c0 .. c0 + width
            a = np.bincount(flat[lo * per_row:hi * per_row],
                            weights=entries[lo:hi].ravel(),
                            minlength=size + 1)[:size].reshape(-1, width)
            left, mid = a[:, :lo - c0], a[:, lo - c0:hi - c0]
            y = rhs_w[lo:hi]
            if u_prev is not None:
                # left meets the last rows of the previous block only
                mid[:, :u_prev.shape[1]] -= left @ u_prev[len(u_prev) - bw:]
                y = y - left @ z_prev[len(z_prev) - bw:]
            try:
                sol = np.linalg.solve(
                    mid, np.concatenate((a[:, hi - c0:], y), axis=1))
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"frozen-policy system is singular in rows {lo}..{hi - 1}"
                    f" ({exc})") from exc
            u_prev, z_prev = sol[:, :width - hi + c0], sol[:, width - hi + c0:]
            factors.append((lo, u_prev, z_prev))
        x = np.empty((n, 2))
        for lo, u_blk, z_blk in reversed(factors):
            hi = lo + len(z_blk)
            x[lo:hi] = z_blk - u_blk @ x[hi:hi + u_blk.shape[1]]
        v, w = x.T
        norm = float(diag.max()) + scale
        if not norm * np.abs(w).max() < _SINGULAR_COND:  # nan counts as over
            cond = norm * np.abs(w)
            bad = np.flatnonzero(~(cond < _SINGULAR_COND))
            more = f" and {bad.size - 10} more" if bad.size > 10 else ""
            raise SolverError(
                f"frozen-policy system is singular in rows "
                f"{bad[:10].tolist()}{more} (condition bound "
                f"{np.max(cond):.3g})")
        return v


def _ensure_table(kernel: SweepKernel, table, lam: float, v: np.ndarray):
    """(Re)build the sup-term table when the iterate's u-range escapes it.

    Only p-coupled sweeps at λ > 0 read one."""
    if lam == 0.0 or kernel.evaluator.model.coupling.separable:
        return None
    u = lam * v
    lo, hi = float(np.min(u)), float(np.max(u))
    pad = 0.25 * max(hi - lo, 1.0)
    if table is None or not table.covers(lo, hi):
        table = kernel.evaluator.coupling_table(
            kernel.speeds, lo - pad, hi + pad)
    return table


def _gain(kernel: SweepKernel, lam: float, discount: float) -> float:
    """Contraction margin of one sweep: 1 - its Lipschitz factor, or 1."""
    if discount:
        return -math.expm1(-discount * kernel.dt)
    if lam > 0 and kernel.kappa_lo > 0:
        return lam * kernel.kappa_lo * kernel.dt
    return 1.0


def _policy_iterate(kernel: SweepKernel, v0: np.ndarray, lam: float,
                    c: float, params: SolveParams, meta: dict,
                    discount: float = 0.0, held=None) -> SolveOutcome:
    """Howard's algorithm on the in-mask values of v0: argmin sweep, then
    the frozen-policy solve.

    Under the policy π of the sweep at v, node i's sup term is read as
    w_i + s_i*λ*(v'_i - v_i): w and s are the value and exact u-slope of
    the sup-term table at (λv_i, π_i), or cost[π] and 0 where no table is
    read (separable couplings, λ = 0). The fixed point of that sweep
    solves (diag - scale*P) v' = rhs, diag = 1 + Δtλ(φ - s), scale =
    exp(-δΔt) and rhs = Δt(f + c + w - λsv). With s = 0 this is the exact
    frozen-policy solve, otherwise a semismooth Newton step; ∂_u W < 0
    keeps diag > 1.

    held, in-mask positions, keep their v0 values and start the other
    in-mask nodes at 1e6 times their distance to the nearest held one.
    Held rows (these, and undiscounted sweeps that stay put and return
    their value bit for bit) become the stay control with diag = scale + 1
    and rhs the current value. params None means the defaults. The
    outcome's field is a copy of v0 with the in-mask values replaced and
    carries meta.
    """
    params = params or SolveParams()
    v = np.asarray(v0, dtype=float).ravel()[kernel.in_idx]
    named = np.zeros(len(v), dtype=bool)
    if held is not None:
        named[held] = True
        pts = kernel.grid.points()[kernel.in_idx]
        dist = np.full(len(v), np.inf)
        for p in pts[named]:
            np.minimum(dist, np.linalg.norm(pts - p, axis=1), out=dist)
        v = np.where(named, v, 1e6 * dist)
    fixed = v[named]
    dt = kernel.dt
    gain = _gain(kernel, lam, discount)
    target = params.tol * min(1.0, gain)
    scale = math.exp(-discount * dt)
    base = dt * (kernel.f_in + c)
    policy = np.empty(len(v), dtype=np.intp)
    table = None
    res = math.inf
    converged = False
    it = 0
    for it in range(1, params.max_iters + 1):
        table = _ensure_table(kernel, table, lam, v)
        v_new = kernel.step(v, lam, c, discount, table=table, policy=policy)
        v_new[named] = fixed
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
        diag = 1.0 + dt * lam * (kernel.phi_in - s)
        rhs = base + dt * (w - lam * s * v)
        hold = named | ((policy == kernel.stay) & (diag == scale)
                        & (v_new == v))
        policy[hold] = kernel.stay
        diag[hold] = scale + 1.0
        rhs[hold] = v[hold]
        v = kernel.policy_solve(policy, diag, scale, rhs)
    out = np.array(v0, dtype=float).ravel()
    out[kernel.in_idx] = v
    return SolveOutcome(GridField(kernel.grid, out, meta=meta), it, res,
                        converged, {"error_bound": res / gain})


def _staying_cost(kernel: SweepKernel, c: float):
    """Cost per unit time of staying put at each in-mask node at λ = 0 or
    where φ vanishes, f + c + W(0), and its least value. W(s) >= W(0), so
    no moving cycle costs less: the least value is the exact drift rate of
    the λ = 0 sweep.
    """
    cost = kernel.f_in + c + kernel.cost[kernel.stay]
    return cost, float(np.min(cost))


def _in_mask_position(kernel: SweepKernel, point, what: str):
    """Grid index and in-mask position of the node nearest to point."""
    grid = kernel.grid
    idx = np.ravel_multi_index(grid.nearest_node(point), grid.shape)
    if not grid.mask.flat[idx]:
        raise SolverError(f"{what} lies outside the mask")
    return idx, int(np.searchsorted(kernel.in_idx, idx))


# ---------------------------------------------------------------------------
# public operations


def lax_oleinik_step(kernel: SweepKernel, v: GridField, lam: float,
                     c: float) -> GridField:
    """One contact sweep of the operator on a field."""
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
    # no discount where φ = 0: staying put at a cost below 0 runs to -inf
    cost, _ = _staying_cost(kernel, c)
    stuck = np.flatnonzero((kernel.phi_in == 0.0) & (cost < 0.0))
    if len(stuck):
        x = kernel.grid.points()[kernel.in_idx[stuck[0]]]
        raise SolverError(
            "no bounded solution: phi vanishes at the node x = "
            f"{', '.join(map('{:g}'.format, x))}, where staying put costs "
            f"{cost[stuck[0]]:.6g} < 0 per unit time")
    start = np.zeros(kernel.grid.size) if v0 is None else v0
    return _policy_iterate(kernel, start, lam, c, params, {
        "kind": "state_constraint", "lambda": lam, "c": c})


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
    table, outcomes = [], []
    start = np.zeros(grid.size)
    for lam in lams:
        # λv + H(x, Dv, 0) = 0: the sweep at level 0 with discount λ
        out = _policy_iterate(kernel, start, 0.0, 0.0, params, {
            "kind": "discounted", "lambda": lam, "c": 0.0},
            discount=lam).settled(f"discounted solve at lam={lam:g}")
        c_est = -lam * out.field.interpolate(np.reshape(x0, (1, -1)))[0]
        table.append((lam, float(c_est)))
        outcomes.append(out)
        start = out.field.values  # warm start the next, smaller λ
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
    """Ergodic (λ=0) solve, zero at the anchor node.

    The least staying cost is the exact drift rate: beyond 10*tol per sweep
    it raises CMismatchError, as no critical solution exists at c. Below
    that, the Aubry nodes, whose staying cost lies within the same margin
    of the least, are held at their v0 levels, which keeps the relative
    well levels; the rest is solved at c - rate and shifted to vanish at
    the anchor.
    """
    params = params or SolveParams()
    grid = kernel.grid
    if anchor is None:
        anchor = np.zeros(grid.dim)
    anchor_idx, _ = _in_mask_position(kernel, anchor, "anchor")
    cost, rate = _staying_cost(kernel, c)
    slack = 10.0 * params.tol
    if not abs(rate * kernel.dt) <= slack:
        raise CMismatchError(rate)
    aubry = np.flatnonzero(kernel.dt * (cost - rate) <= slack)
    start = np.zeros(grid.size) if v0 is None else v0
    out = _policy_iterate(kernel, start, 0.0, c - rate, params, {
        "kind": "ergodic", "lambda": 0.0, "c": c}, held=aubry)
    values = out.field.values.reshape(-1)  # a view of the field's values
    values[kernel.in_idx] -= values[anchor_idx]
    return out


def solve_maximal_global(evaluator: LagrangianEvaluator, controls: ControlSet,
                         lam: float, c: float, r_schedule, probe,
                         params: SolveParams = None, *, box, shape,
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
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    history = []
    outcome = stabilized_at = prev_bound = None
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
    outcome.field.meta.update(kind="maximal_truncated", R=history[-1][0])
    outcome.extras.update(stabilization=history,
                          stabilized=stabilized_at is not None,
                          stabilized_at=stabilized_at)
    return outcome


def mane_potential(kernel: SweepKernel, y, c: float,
                   params: SolveParams = None) -> GridField:
    """Intrinsic semi-distance S(., y): the λ = 0 solve with the pin held
    at 0, the cheapest path costs from y at the level c.

    Below the critical value S is -inf: a least staying cost below -10*tol
    per sweep raises CMismatchError before any solve.
    """
    params = params or SolveParams()
    pin, pin_pos = _in_mask_position(kernel, y, "pin point")
    _, rate = _staying_cost(kernel, c)
    if not rate * kernel.dt >= -10.0 * params.tol:
        raise CMismatchError(rate)
    start = np.full(kernel.grid.size, 1e6)
    start[pin] = 0.0
    return _policy_iterate(kernel, start, 0.0, c, params, {
        "kind": "mane", "lambda": 0.0, "c": c},
        held=[pin_pos]).settled("pinned solve").field


def aubry_indicator(kernel: SweepKernel, c: float, sample_points,
                    params: SolveParams = None) -> np.ndarray:
    """One-step improvement defect of S(., y) at its own pin, per sample.

    Vanishing defect (up to grid error) marks y as an Aubry-set candidate:
    no control improves on sitting at y when the running cost is L + c.
    """
    grid = kernel.grid
    pts = np.asarray(sample_points, dtype=float).reshape(-1, grid.dim)
    # one sweep of S(., y) read at the pin; S(y) = 0 there by construction
    return np.array([
        lax_oleinik_step(kernel, mane_potential(kernel, y, c, params), 0.0,
                         c).values[grid.nearest_node(y)] for y in pts])
