"""Hamiltonian models H(x, p, u) = kinetic(p) - f(x) + coupling(x, p, u).

The model family is deliberately small and fully serializable:

* kinetic: |p|^2/2, |p|^tau/tau, or a tabulated radial profile,
* potential f: a closed-form expression tree in x (and y),
* coupling in the u slot: none, linear phi(x)*u, or the arctan form
  (|p|^2 + 1)*(arctan(u) + shift) + u.

Every coupling is phi(x)*u plus a momentum term m(|p|, u), radial in p like
the kinetic, so the Lagrangian L(x, v, u) = sup_p [p.v - H(x, p, u)] reduces
to a maximization along the ray spanned by v and splits as

    L(x, v, u) = W(|v|, u) + f(x) - phi(x)*u,
    W(s, u) = sup_r [r*s - kinetic(r) - m(r, u)],

with outer factor phi = 0 for none, phi(x) for linear and 1 for arctan.
Only arctan has a momentum term, (r^2 + 1)*(arctan(u) + shift); the other
couplings are separable: W does not depend on u, and closed-form kinetics
give it as their conjugate. Otherwise the grid-based evaluator maximizes
r*s - kinetic(r) - m(r, u) over a uniform r-lattice, as one table over the
distinct levels x distinct speeds, in blocks of bounded size with the
products r*s formed once. The pairs asked for whose maximizer lands on the
lattice boundary go on, as a smaller table, to a lattice of twice the
extent.

check_assumptions samples the structure hypotheses on H (H1-H4, P1-P3) on
fixed lattices of momenta p, levels u and points x. Each check is one
broadcast evaluation of H or du_H over its (p, u, x) lattice, reduced by
one argmin or argmax; ties go to the first sample in (p, u, x) order. A
potential or coupling factor that is not finite on the x lattice is a
ModelError, not a check result.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import Expr, coordinate_names, parse, point_env
from .grid import tensor_points

__all__ = [
    "QuadraticKinetic",
    "PowerKinetic",
    "TabulatedKinetic",
    "NoCoupling",
    "LinearCoupling",
    "ArctanCoupling",
    "HamiltonianModel",
    "LagrangianEvaluator",
    "AssumptionCheck",
    "AssumptionReport",
    "check_assumptions",
    "ModelError",
    "ExtentError",
    "ASSUMPTIONS",
]


class ModelError(ValueError):
    """Inconsistent model definition or evaluation request."""


class ExtentError(ModelError):
    """Legendre maximizer escaped the largest allowed momentum lattice."""


# ---------------------------------------------------------------------------
# kinetics


@dataclass(frozen=True)
class QuadraticKinetic:
    def radial(self, r):
        return 0.5 * np.square(r)

    def conjugate_speed(self, s):
        return 0.5 * np.square(s)

    def to_json(self):
        return {"type": "quadratic"}


@dataclass(frozen=True)
class PowerKinetic:
    tau: float

    def __post_init__(self):
        if self.tau <= 1.0:
            raise ModelError("power kinetic needs tau > 1")

    def radial(self, r):
        return np.power(np.abs(r), self.tau) / self.tau

    def conjugate_speed(self, s):
        tau_star = self.tau / (self.tau - 1.0)
        return np.power(np.abs(s), tau_star) / tau_star

    def to_json(self):
        return {"type": "power", "tau": self.tau}


@dataclass(frozen=True)
class TabulatedKinetic:
    """Radial kinetic h(|p|) given by values on the lattice {0, dp, 2dp, ...}."""

    dp: float
    values: tuple

    def __post_init__(self):
        if self.dp <= 0 or len(self.values) < 2:
            raise ModelError("tabulated kinetic needs dp > 0 and >= 2 values")

    @property
    def extent(self):
        return self.dp * (len(self.values) - 1)

    def radial(self, r):
        r = np.abs(np.asarray(r, dtype=float))
        if np.any(r > self.extent + 1e-12):
            raise ExtentError("momentum outside tabulated kinetic extent")
        vals = np.asarray(self.values, dtype=float)
        return np.interp(r, self.dp * np.arange(len(vals)), vals)

    def to_json(self):
        return {"type": "tabulated", "dp": self.dp, "values": list(self.values)}


# ---------------------------------------------------------------------------
# couplings
#
# Each coupling gives its outer factor phi at points (outer), its momentum
# term m(r, u) (momentum_term) with its u-derivative (momentum_du), and
# whether m is free of u (separable): H = kinetic - f + phi*u + m. Each m is
# nondecreasing in u (m_u = 0, or (r^2 + 1)/(1 + u^2) for arctan), so the
# sweep takes min phi over its nodes as the lower bound kappa_lo of du_H.


class _NoMomentum:
    separable = True

    def momentum_term(self, r, u):
        return 0.0

    def momentum_du(self, r, u):
        return np.zeros(np.broadcast(r, u).shape)


@dataclass(frozen=True)
class NoCoupling(_NoMomentum):
    kind = "none"

    def outer(self, pts):
        return 0.0

    def to_json(self):
        return {"type": "none"}


@dataclass(frozen=True)
class LinearCoupling(_NoMomentum):
    """Coupling phi(x) * u."""

    phi: Expr
    kind = "linear"

    def outer(self, pts):
        return self.phi(**point_env(pts))

    def to_json(self):
        return {"type": "linear", "phi": str(self.phi)}


@dataclass(frozen=True)
class ArctanCoupling:
    """Coupling (|p|^2 + 1) * (arctan(u) + shift) + u."""

    shift: float = math.pi
    kind = "arctan"
    separable = False

    def outer(self, pts):
        return 1.0

    def momentum_term(self, r, u):
        return (np.square(r) + 1.0) * (np.arctan(u) + self.shift)

    def momentum_du(self, r, u):
        return (np.square(r) + 1.0) / (1.0 + np.square(u))

    def to_json(self):
        return {"type": "arctan", "shift": self.shift}


# ---------------------------------------------------------------------------
# model


def _as_points(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if dim == 1:
        if z.ndim == 0:
            z = z[None]
        if z.shape[-1] != 1:
            z = z[..., None]
    else:
        if z.ndim == 1:
            if z.shape[0] != dim:
                raise ModelError(f"expected point of dimension {dim}")
            z = z[None, :]
        if z.shape[-1] != dim:
            raise ModelError(f"expected points of dimension {dim}")
    return z


def _number(value, key: str, cast=float):
    """cast(value), or ModelError naming the descriptor key unless finite."""
    try:
        x = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ModelError(f"model.{key} needs a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ModelError(f"model.{key} must be finite, got {x!r}")
    return x


def _numbers(value, key: str) -> tuple:
    """The list value as a tuple of floats, or ModelError naming the key."""
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"model.{key} needs a list of numbers, got {value!r}")
    return tuple(_number(item, key) for item in value)


def _expression(spec: dict, key: str, where: str) -> Expr:
    """spec[key] parsed, or ModelError naming the key unless it is a string."""
    text = _required(spec, key, where)
    if not isinstance(text, str):
        raise ModelError(f"{where}{key} needs an expression string, "
                         f"got {text!r}")
    return parse(text)


def _object(value, what: str) -> dict:
    """value if it is a JSON object, else ModelError naming the part."""
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object, got {value!r}")
    return value


def _required(spec: dict, key: str, where: str):
    """spec[key], or ModelError naming the missing descriptor key."""
    if key not in spec:
        raise ModelError(f"missing key {where}{key}")
    return spec[key]


def _own_keys(spec: dict, part, where: str, ignored=()):
    """part, or ModelError for a key of spec that part.to_json() lacks."""
    extra = sorted(set(spec) - set(part.to_json()) - set(ignored))
    if extra:
        raise ModelError(f"unknown key {where}{extra[0]}")
    return part


@dataclass(frozen=True)
class HamiltonianModel:
    dim: int
    kinetic: object
    potential: Expr
    coupling: object = field(default_factory=NoCoupling)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ModelError("dim must be 1 or 2")
        exprs = {"potential": self.potential}
        if self.coupling.kind == "linear":
            exprs["coupling phi"] = self.coupling.phi
        for what, expr in exprs.items():
            extra = expr.variables - set(coordinate_names(self.dim))
            if extra:
                raise ModelError(f"{what} uses unknown variables "
                                 f"{sorted(extra)}")

    # -- pieces ------------------------------------------------------------

    def f(self, x):
        pts = _as_points(x, self.dim)
        return np.full(pts.shape[:-1], self.potential(**point_env(pts)),
                       dtype=float)

    def phi(self, x):
        """Outer factor of u in the coupling, one value per point."""
        pts = _as_points(x, self.dim)
        return np.full(pts.shape[:-1], self.coupling.outer(pts), dtype=float)

    # -- evaluation --------------------------------------------------------

    def eval_h(self, x, p, u):
        """H(x, p, u) = kinetic(|p|) - f(x) + phi(x)*u + m(|p|, u), batched."""
        r = np.sqrt(np.sum(np.square(_as_points(p, self.dim)), axis=-1))
        u = np.asarray(u, dtype=float)
        val = (self.kinetic.radial(r) - self.f(x)
               + (self.phi(x) * u + self.coupling.momentum_term(r, u)))
        return val if np.ndim(val) else float(val)

    def du_h(self, x, p, u):
        """Partial derivative of H in the u slot, phi(x) + m_u(|p|, u)."""
        r = np.sqrt(np.sum(np.square(_as_points(p, self.dim)), axis=-1))
        val = self.phi(x) + self.coupling.momentum_du(r, u)
        return val if np.ndim(val) else float(val)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "kinetic": self.kinetic.to_json(),
            "potential": str(self.potential),
            "coupling": self.coupling.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "HamiltonianModel":
        data = _object(data, "model")
        kin_spec = _object(data.get("kinetic", {"type": "quadratic"}),
                           "kinetic")
        kind = kin_spec.get("type", "quadratic")
        if kind == "quadratic":
            kinetic = QuadraticKinetic()
        elif kind == "power":
            kinetic = PowerKinetic(tau=_number(
                _required(kin_spec, "tau", "model.kinetic."), "kinetic.tau"))
        elif kind == "tabulated":
            kinetic = TabulatedKinetic(
                dp=_number(_required(kin_spec, "dp", "model.kinetic."),
                           "kinetic.dp"),
                values=_numbers(_required(kin_spec, "values", "model.kinetic."),
                                "kinetic.values"))
        else:
            raise ModelError(f"unknown kinetic type {kind!r}")
        cpl_spec = _object(data.get("coupling", {"type": "none"}), "coupling")
        ckind = cpl_spec.get("type", "none")
        if ckind == "none":
            coupling = NoCoupling()
        elif ckind == "linear":
            coupling = LinearCoupling(
                phi=_expression(cpl_spec, "phi", "model.coupling."))
        elif ckind == "arctan":
            coupling = ArctanCoupling(
                shift=_number(cpl_spec.get("shift", math.pi), "coupling.shift"))
        else:
            raise ModelError(f"unknown coupling type {ckind!r}")
        # coupling.bounds is accepted and ignored: kappa_lo comes from phi
        _own_keys(kin_spec, kinetic, "model.kinetic.")
        _own_keys(cpl_spec, coupling, "model.coupling.", ignored=("bounds",))
        model = HamiltonianModel(
            dim=_number(_required(data, "dim", "model."), "dim", int),
            kinetic=kinetic,
            potential=_expression(data, "potential", "model."),
            coupling=coupling,
        )
        return _own_keys(data, model, "model.")


# ---------------------------------------------------------------------------
# Lagrangian evaluation


P_EXTENT = 20.0  # lower_bound_m0 lattice, tabulated sup cap, 8x first extent
P_SPACING = 0.01  # spacing of the radial momentum lattice
_EXTENT_START = P_EXTENT / 8  # first extent of the lattice sup
_EXTENT_CAP = 160.0
_BLOCK = 1 << 15  # elements per temporary of the lattice sup (256 KB)
_TABLE_DU = 5e-3  # u spacing of the sup-term tables of p-coupled sweeps
_DU_EPS = 1e-6  # forward-difference step of partial_u_l


def _lattice(extent: float) -> np.ndarray:
    return P_SPACING * np.arange(int(round(extent / P_SPACING)) + 1)


class LagrangianEvaluator:
    """Legendre transform L(x, v, u) = W(|v|, u) + f(x) - phi(x)*u.

    W is the kinetic conjugate when the kinetic has one and the coupling is
    separable. Otherwise it is a sup over the radial momentum lattice of
    spacing P_SPACING, taken by _table_sup over a levels x speeds table:
    from extent P_EXTENT/8, doubled for the pairs asked for whose maximizer
    is on the lattice edge, up to a hard cap (for tabulated kinetics
    min(P_EXTENT, table extent)). Each lattice is a prefix of the next and,
    under H1, the payoff is concave in r: a first maximum inside one is
    first on all longer ones, so the sup is exact for models that satisfy
    H1. Blocks hold at most _BLOCK payoffs.
    """

    def __init__(self, model: HamiltonianModel):
        self.model = model
        self.uses_closed_form = model.coupling.separable and hasattr(
            model.kinetic, "conjugate_speed")

    # -- radial grid supremum ----------------------------------------------

    def _extents(self):
        """(r, kinetic(r)) on radial lattices of growing extent: from
        P_EXTENT/8, doubled up to the cap; asked for more after the cap, it
        raises ExtentError."""
        kinetic = self.model.kinetic
        tabulated = isinstance(kinetic, TabulatedKinetic)
        cap = min(P_EXTENT, kinetic.extent) if tabulated else _EXTENT_CAP
        extent = min(_EXTENT_START, cap)
        while True:
            r = _lattice(extent)
            yield r, kinetic.radial(r)
            if extent >= cap:
                raise ExtentError(
                    "maximizer on the tabulated kinetic boundary" if tabulated
                    else f"Legendre maximizer escaped the momentum lattice at "
                         f"extent {extent:g} (cap {_EXTENT_CAP:g})")
            extent = min(2.0 * extent, cap)

    def _table_sup(self, speeds, levels, asked=True, extents=None):
        """W(speeds[j], levels[i]) as a (levels, speeds) table, 1-D inputs.

        asked, a (levels, speeds) mask, names the pairs the caller needs
        (True: all); the others may hold a maximum on too short a lattice.
        Each numpy call takes a block of levels against a group of distinct
        speeds (by their bits), whose products s*r it forms once: at most
        _BLOCK payoffs and one argmax over r. The rows kinetic + m of the
        levels come in chunks of at most _BLOCK values. Only the asked pairs
        whose maximizer is on the lattice edge go on, as a table of their
        own, to the next lattice of extents, a _extents() iterator."""
        speeds = np.asarray(speeds, dtype=float)
        levels = np.asarray(levels, dtype=float)
        if not (speeds.size and levels.size):
            return np.empty((len(levels), len(speeds)))
        bits, inverse = np.unique(speeds.view(np.int64), return_inverse=True)
        distinct = bits.view(float)
        n = len(distinct)
        extents = extents or self._extents()
        r, kin = next(extents)
        per_block = max(1, _BLOCK // len(r))  # speeds or levels per _BLOCK
        coupling = self.model.coupling
        sup = np.empty((len(levels), n))
        edge = np.empty(sup.shape, dtype=bool)
        for a in range(0, n, per_block):
            group = slice(a, a + per_block)
            sr = np.multiply.outer(distinct[group], r)
            step = _BLOCK // sr.size  # levels per payoff block
            for c in range(0, len(levels), per_block):
                chunk = levels[c:c + per_block]
                rows = np.broadcast_to(
                    kin + coupling.momentum_term(r, chunk[:, None]),
                    (len(chunk), len(r)))
                for lo in range(0, len(chunk), step):
                    block = rows[lo:lo + step]
                    payoff = (sr - block[:, None, :]).reshape(-1, len(r))
                    best = payoff.argmax(axis=1)
                    at = (slice(c + lo, c + lo + len(block)), group)
                    sup[at] = payoff[np.arange(len(best)), best].reshape(
                        len(block), -1)
                    edge[at] = (best == len(r) - 1).reshape(len(block), -1)
                    del payoff  # the next block reuses its memory
        sup = sup[:, inverse]
        if np.any(edge):
            edge = edge[:, inverse] & asked
            li = np.flatnonzero(edge.any(axis=1))
            si = np.flatnonzero(edge.any(axis=0))
            at = np.ix_(li, si)
            longer = self._table_sup(speeds[si], levels[li], edge[at], extents)
            sup[at] = np.where(edge[at], longer, sup[at])
        return sup

    def _sup_term(self, speeds: np.ndarray, u) -> np.ndarray:
        """W(|v|, u) for |v| = speeds at level(s) u: one table over the
        distinct levels x distinct speeds of the broadcast pairs."""
        speeds = np.atleast_1d(np.asarray(speeds, dtype=float))
        if self.uses_closed_form:
            return self.model.kinetic.conjugate_speed(speeds)
        speeds, u = np.broadcast_arrays(
            speeds, 0.0 if self.model.coupling.separable else u)
        out = np.empty(speeds.shape)
        if not out.size:
            return out
        # the pairs sorted by level, then speed: levels compare by value, so
        # -0.0 and 0.0 share a level (momentum_term gives them equal bits),
        # speeds by their bits
        bits, u = speeds.reshape(-1).view(np.int64), u.reshape(-1)
        order = np.lexsort((bits, u))
        bits, u = bits[order], u[order]
        level = np.concatenate(([True], u[1:] != u[:-1]))
        first = level | np.concatenate(([True], bits[1:] != bits[:-1]))
        distinct, s_at = np.unique(bits[first], return_inverse=True)
        u_at = np.cumsum(level[first]) - 1
        asked = np.zeros((u_at[-1] + 1, len(distinct)), dtype=bool)
        asked[u_at, s_at] = True
        table = self._table_sup(distinct.view(float), u[level], asked)
        out.reshape(-1)[order] = table[u_at, s_at][np.cumsum(first) - 1]
        return out

    # -- public operations ---------------------------------------------------

    def legendre(self, x, v, u):
        """L(x, v, u); inputs broadcast, scalar in gives scalar out.

        Without a closed form, the sup costs distinct levels x distinct
        speeds payoff rows, not one row per pair."""
        model = self.model
        vel = _as_points(v, model.dim)
        u_arr = np.asarray(u, dtype=float)
        speeds = np.sqrt(np.sum(np.square(vel), axis=-1))
        val = np.asarray(self._sup_term(speeds, u_arr) + model.f(x)
                         - model.phi(x) * u_arr)
        scalar_in = (val.size == 1 and np.ndim(u) == 0
                     and np.asarray(x, dtype=float).ndim <= 1
                     and np.asarray(v, dtype=float).ndim <= 1)
        return float(val.reshape(-1)[0]) if scalar_in else val

    def conjugate_speeds(self, speeds: np.ndarray) -> np.ndarray:
        """W(speeds, 0): the sup term at u = 0, at every u if separable."""
        return self._sup_term(speeds, 0.0)

    def coupling_table(self, speeds: np.ndarray, u_lo: float, u_hi: float):
        """Sup-term table over (control speeds) x (u lattice) for p-coupled models."""
        return _ConjugateTable(self, np.asarray(speeds, dtype=float), u_lo, u_hi)

    def partial_u_l(self, x, v, u):
        """Derivative of L in the u slot: -phi(x) for separable couplings,
        a forward difference of step _DU_EPS otherwise."""
        if self.model.coupling.separable:
            out = -self.model.phi(x)
            return float(out) if np.size(out) == 1 and np.ndim(u) == 0 else out
        u = np.asarray(u, dtype=float)
        hi = self.legendre(x, v, u + _DU_EPS)
        return (hi - self.legendre(x, v, u)) / _DU_EPS

    def discount_index(self, x, v, level_a, level_b):
        """Difference quotient of L in u between level_a and level_b.

        Degenerates to the one-sided derivative at level_b where the levels
        lie closer than its step _DU_EPS: there the quotient would mostly be
        the rounding of L, which is of order |L| * 1e-16 / |level_a -
        level_b|. Symmetric in levels further apart, and nonpositive
        whenever the model is monotone in u.
        """
        a = np.asarray(level_a, dtype=float)
        b = np.asarray(level_b, dtype=float)
        diff = self.legendre(x, v, a) - self.legendre(x, v, b)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = diff / (a - b)
        same = np.abs(a - b) < _DU_EPS
        if np.any(same):
            out = np.where(same, self.partial_u_l(x, v, b), out)
        return float(out) if np.ndim(out) == 0 else out


class _ConjugateTable:
    """Linear-in-u interpolation of the Legendre sup term on a u lattice.

    Solver sweeps for p-coupled models read L(x, v, u) = W(|v|, u) + f(x) - u
    thousands of times per iteration; W is precomputed here on a lattice fine
    enough that the interpolation error sits far below solver tolerances.
    """

    def __init__(self, evaluator: LagrangianEvaluator, speeds: np.ndarray,
                 u_lo: float, u_hi: float):
        pad = 4.0 * _TABLE_DU
        lo = u_lo - pad
        hi = max(u_hi + pad, lo + 2 * _TABLE_DU)
        n = int(math.ceil((hi - lo) / _TABLE_DU)) + 1
        self.u_grid = lo + _TABLE_DU * np.arange(n)
        # w[i, j] = W(speeds[j], u_grid[i])
        self.w = evaluator._table_sup(speeds, self.u_grid)

    def covers(self, u_lo: float, u_hi: float) -> bool:
        return self.u_grid[0] <= u_lo and u_hi <= self.u_grid[-1]

    def _cell(self, u):
        """Lattice cell of each level u and its fraction t within it."""
        pos = (np.asarray(u, dtype=float) - self.u_grid[0]) / _TABLE_DU
        idx = np.clip(np.floor(pos).astype(int), 0, len(self.u_grid) - 2)
        return idx, pos - idx

    def values(self, u: np.ndarray) -> np.ndarray:
        """W(speed_j, u_i) as a (n_speeds, n_points) matrix."""
        idx, t = self._cell(u)
        return (self.w[idx, :] * (1.0 - t)[:, None]
                + self.w[idx + 1, :] * t[:, None]).T

    def value_and_slope(self, u: np.ndarray, speed_idx: np.ndarray):
        """W(speeds[speed_idx_i], u_i) and its exact u-slope, per point i."""
        idx, t = self._cell(u)
        w0, w1 = self.w[idx, speed_idx], self.w[idx + 1, speed_idx]
        return w0 * (1.0 - t) + w1 * t, (w1 - w0) / _TABLE_DU


# ---------------------------------------------------------------------------
# assumption checking


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    status: str  # verified-on-samples | violated | not-applicable
    margin: float | None = None
    witness: dict = field(default_factory=dict)
    note: str = ""

    def to_json(self):
        return {"name": self.name, "status": self.status, "margin": self.margin,
                "witness": self.witness, "note": self.note}


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple

    def __getitem__(self, name: str) -> AssumptionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {"checks": [c.to_json() for c in self.checks]}


def _ball_samples(radius, n, dim):
    """n points across [-radius, radius] in 1D; in 2D the origin, then n
    angles on each of max(1, n // 4 - 1) rings out to radius."""
    if dim == 1:
        return np.linspace(-radius, radius, n)[:, None]
    r = np.linspace(0.0, radius, max(2, n // 4))[1:]
    th = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    return np.vstack([np.zeros((1, 2)), np.column_stack(
        [(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])])


def _first(pick, vals):
    """pick (np.argmin or np.argmax) of vals: the value and its index, the
    first in C order on ties."""
    k = np.unravel_index(pick(vals), vals.shape)
    return float(vals[k]), k


# names of the checks of check_assumptions, in the order it reports them
ASSUMPTIONS = ("H1", "H2", "H3", "H4", "P1", "P2", "P3")
# sample sizes of check_assumptions: x box half-width, momentum radius, u
# range, x and p samples per axis, P1 contraction factor, H2 momentum radius
_CHECK_HALF = 6.0
_P_RADIUS = 6.0
_U_SPAN = 2.0
_N_X = 13
_N_P = 13
_THETA = 0.5
_EPS_H2 = 0.5


def check_assumptions(model: HamiltonianModel) -> AssumptionReport:
    """Sampled verification of the structure assumptions on H.

    Each check evaluates H (or du_H) once over a broadcast lattice of
    momenta p, levels u and points x, and records its worst margin and
    witness, the first such sample in (p, u, x) order. A passing status
    means verified on those samples, nothing stronger; violations come with
    the offending sample point. A potential f or factor phi that is not
    finite on the x lattice raises ModelError before any check runs.
    """
    xs = tensor_points([np.linspace(-_CHECK_HALF, _CHECK_HALF, _N_X)]
                       * model.dim)
    with np.errstate(all="ignore"):
        pieces = (("potential f", model.f(xs)),
                  ("coupling factor phi", model.phi(xs)))
    for name, vals in pieces:
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ModelError(f"{name} is not finite at the check sample "
                             f"x = {xs[bad[0]].tolist()}")
    ps = _ball_samples(_P_RADIUS, _N_P, model.dim)
    us = np.linspace(-_U_SPAN, _U_SPAN, 9)
    x_sub = xs[:: max(1, len(xs) // 9)]
    p_sub = ps[:: max(1, len(ps) // 11)]
    checks = []

    def lattice(fn, p, u, x=xs):
        """fn(x, p, u) at every sample: the broadcast leading axes of p
        (..., dim) and u, then one axis over the points x."""
        shape = np.broadcast_shapes(p.shape[:-1], np.shape(u), (len(x),))
        return np.broadcast_to(fn(x, p, u), shape)

    def midpoint_gap(p1, p2, u1, u2):
        """Worst H(midpoint) - mean of H at the ends over (pair, u pair, x)."""
        hv = lattice(model.eval_h,
                     np.stack([0.5 * (p1 + p2), p1, p2])[:, :, None, None],
                     np.stack([0.5 * (u1 + u2), u1, u2])[:, None, :, None],
                     x_sub)
        return _first(np.argmax, hv[0] - 0.5 * (hv[1] + hv[2]))

    # H1a: monotone (nondecreasing) in u
    p_mono = ps[:: max(1, len(ps) // 7)]
    hv = lattice(model.eval_h, p_mono[:, None, None], us[:, None])
    slopes = (hv[:, 1:] - hv[:, :-1]) / (us[1:] - us[:-1])[:, None]
    worst, (i, k, j) = _first(np.argmin, slopes)
    witness = {"x": xs[j].tolist(), "p": p_mono[i].tolist(),
               "u": float(us[k])}
    mono_ok = worst >= -1e-9
    # H1b: midpoint convexity in p
    pair = np.arange(0, len(ps), 2)
    p1, p2 = ps[pair], ps[(pair * 5 + 3) % len(ps)]
    levels = np.array([0.0, 1.0])
    conv_worst, (i, k, j) = midpoint_gap(p1, p2, levels, levels)
    conv_witness = {"x": x_sub[j].tolist(), "p1": p1[i].tolist(),
                    "p2": p2[i].tolist(), "u": float(levels[k])}
    conv_ok = conv_worst <= 1e-9
    # H1c: coercivity on bounded x sets, min of H(x, p, 0) on the |p| = r shell
    ring_mins = []
    for r in (_P_RADIUS / 3.0, 2.0 * _P_RADIUS / 3.0, _P_RADIUS):
        ring = _ball_samples(r, _N_P, model.dim)
        shell = ring[np.linalg.norm(ring, axis=1) >= r - 1e-9]
        ring_mins.append(float(np.min(
            lattice(model.eval_h, shell[:, None], 0.0))))
    coercive_ok = ring_mins[-1] > ring_mins[0] and ring_mins[1] >= ring_mins[0]
    h1_ok = mono_ok and conv_ok and coercive_ok
    h1_margin = min(worst, -conv_worst, ring_mins[-1] - ring_mins[0])
    checks.append(AssumptionCheck(
        "H1", "verified-on-samples" if h1_ok else "violated",
        margin=h1_margin,
        witness=witness if not mono_ok else (conv_witness if not conv_ok else {}),
        note="monotone in u, midpoint-convex and coercive in p"))

    # H2: small-momentum values near the box boundary sit below m0
    small_p = _ball_samples(_EPS_H2, 7, model.dim)
    hv = lattice(model.eval_h, np.concatenate([ps, small_p])[:, None], 0.0)
    m0 = float(np.max(np.min(hv[:len(ps)], axis=0)))
    boundary = np.abs(xs).max(axis=1) >= 0.98 * _CHECK_HALF
    worst_h2 = float(np.max(hv[len(ps):, boundary]))
    h2_margin = m0 - worst_h2
    checks.append(AssumptionCheck(
        "H2", "verified-on-samples" if h2_margin > 0 else "violated",
        margin=h2_margin,
        witness={"m0": m0, "boundary_max": worst_h2, "eps": _EPS_H2},
        note="boundary samples of H at small momenta stay below m0"))

    # H3: local bounds on du_H for |p| <= p_radius; H4: a global upper bound
    if model.coupling.kind == "none":
        checks += [AssumptionCheck(name, "not-applicable",
                                   note="no u dependence")
                   for name in ("H3", "H4")]
    else:
        levels = np.array([-_U_SPAN, 0.0, _U_SPAN, 0.25])
        du = lattice(model.du_h, ps[:, None, None], levels[:, None])
        bounds = du[:: max(1, len(ps) // 11), :3]
        kappa_lo, kappa_hi = float(np.min(bounds)), float(np.max(bounds))
        # empirical continuity modulus of du_H in u
        omega = float(np.max(np.abs(du[-1, 3] - du[-1, 1])))
        checks.append(AssumptionCheck(
            "H3", "verified-on-samples" if kappa_lo > 0 else "violated",
            margin=kappa_lo,
            witness={"kappa_lo": kappa_lo, "kappa_hi": kappa_hi,
                     "p_radius": _P_RADIUS, "omega_at_du_0.25": omega},
            note="du_H bounds on the sampled momentum ball; modulus is an "
                 "empirical estimate"))
        # H4 probes du_H over (u, p, x) at growing momentum radii
        levels = np.array([-1.0, 0.0, 1.0])
        growth_witness = {}
        for mult in (1.0, 2.0, 4.0):
            ring = _ball_samples(mult * _P_RADIUS, _N_P, model.dim)
            cap, (k, j, i) = _first(np.argmax, lattice(
                model.du_h, ring[None, :, None], levels[:, None, None]))
            if mult == 1.0:
                local_cap = cap
            elif cap > local_cap + 1e-6:
                growth_witness = {"du_h": cap, "local_cap": local_cap,
                                  "p": ring[j].tolist(), "u": float(levels[k]),
                                  "x": xs[i].tolist()}
                break
        violated = bool(growth_witness)
        checks.append(AssumptionCheck(
            "H4", "violated" if violated else "verified-on-samples",
            margin=(local_cap - cap) if violated else 0.0,
            witness=growth_witness if violated else {"kappa_hi": local_cap},
            note="du_H compared across momentum radii x1, x2, x4"))

    # P1: contraction inequality H(x, theta*p, u) <= H(x, p, u) + C_theta
    levels = np.array([0.0, 1.0])
    hv = lattice(model.eval_h, np.stack([_THETA * p_sub, p_sub])[:, :, None, None],
                 levels[:, None], x_sub)
    worst_p1, (i, k, j) = _first(np.argmax, hv[0] - hv[1])
    wit_p1 = {"x": x_sub[j].tolist(), "p": p_sub[i].tolist(),
              "u": float(levels[k])}
    if isinstance(model.kinetic, TabulatedKinetic):  # not homogeneous
        c_theta, p1_ok = max(0.0, worst_p1), True
        p1_note = f"empirical constant at theta={_THETA}"
    else:  # C_theta = (1 - theta^tau) * min kinetic, and that minimum is 0
        c_theta = 0.0
        p1_ok = worst_p1 <= c_theta + 1e-9
        p1_note = f"C_theta=(1-theta^tau)*min_kinetic at theta={_THETA}"
    checks.append(AssumptionCheck(
        "P1", "verified-on-samples" if p1_ok else "violated",
        margin=c_theta - worst_p1, witness=wit_p1,
        note=p1_note))

    # P2: joint midpoint convexity in (p, u)
    pair = np.arange(0, len(ps) - 1, 3)
    p1, p2 = ps[pair], ps[pair + 1]
    u1, u2 = np.array([-1.0, 0.0, 0.5]), np.array([1.5, 2.0, 1.5])
    worst_p2, (i, k, j) = midpoint_gap(p1, p2, u1, u2)
    wit_p2 = {"x": x_sub[j].tolist(), "p1": p1[i].tolist(),
              "p2": p2[i].tolist(), "u1": float(u1[k]), "u2": float(u2[k])}
    checks.append(AssumptionCheck(
        "P2", "verified-on-samples" if worst_p2 <= 1e-9 else "violated",
        margin=-worst_p2, witness=wit_p2 if worst_p2 > 1e-9 else {},
        note="joint midpoint convexity in (p, u)"))

    # P3: uniform bounds and coercivity across u, on the |p| <= p_radius
    # samples against those with |p| <= p_radius / 3
    ring = ps[:: max(1, len(ps) // 9)]
    lo_ring = _ball_samples(_P_RADIUS / 3.0, _N_P, model.dim)
    lo_ring = lo_ring[:: max(1, len(lo_ring) // 9)]
    hv = lattice(model.eval_h, np.concatenate([ring, lo_ring])[:, None, None],
                 np.array([-_U_SPAN, 0.0, _U_SPAN])[:, None])
    hi, lo = hv[:len(ring)], hv[len(ring):]
    shell = np.linalg.norm(ring, axis=1) >= _P_RADIUS - 1e-9
    p3_margin = float(np.min(hi[shell].min(axis=(0, 2)) - lo.min(axis=(0, 2))))
    checks.append(AssumptionCheck(
        "P3", "verified-on-samples" if p3_margin > 0 else "violated",
        margin=p3_margin,
        witness={"sup_abs_h": float(np.max(np.abs(hi)))},
        note="bounded on samples, coercive uniformly across sampled u"))

    return AssumptionReport(checks=tuple(checks))


def lower_bound_m0(model: HamiltonianModel, x_points: np.ndarray) -> float:
    """max over x samples of min over the momentum lattice of H(x, p, 0)."""
    r = _lattice(P_EXTENT)
    kin = model.kinetic.radial(np.minimum(
        r, getattr(model.kinetic, "extent", math.inf)))
    min_over_p = float(np.min(kin + model.coupling.momentum_term(r, 0.0)))
    f_vals = model.f(x_points)
    return float(np.max(-f_vals)) + min_over_p
