"""Model evaluation, Legendre transforms, discount indices, assumption checks.

Frozen values below were produced by brute-force maximization over dense
momentum grids (2e6 points on [-50, 50]) independent of the evaluator.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from contact_hj import hamiltonian
from contact_hj.expressions import parse
from contact_hj.hamiltonian import (
    _EXTENT_CAP,
    P_EXTENT,
    _lattice,
    ArctanCoupling,
    ExtentError,
    HamiltonianModel,
    LagrangianEvaluator,
    LinearCoupling,
    ModelError,
    NoCoupling,
    PowerKinetic,
    QuadraticKinetic,
    TabulatedKinetic,
    check_assumptions,
    lower_bound_m0,
)

from conftest import peak_bytes


@pytest.fixture
def quad_lin():
    return HamiltonianModel(
        dim=1,
        kinetic=QuadraticKinetic(),
        potential=parse("1 - exp(-x^2)"),
        coupling=LinearCoupling(phi=parse("1")),
    )


@pytest.fixture
def arctan_model():
    return HamiltonianModel(
        dim=1,
        kinetic=QuadraticKinetic(),
        potential=parse("1 - exp(-x^2)"),
        coupling=ArctanCoupling(shift=math.pi),
    )


def test_eval_h_quadratic_linear(quad_lin):
    # H(0, 2, 3) = 4/2 - 0 + 1*3
    assert quad_lin.eval_h(0.0, 2.0, 3.0) == pytest.approx(5.0)
    assert quad_lin.eval_h(2.0, 0.0, 0.0) == pytest.approx(-(1 - math.exp(-4.0)))


def test_eval_h_arctan_at_origin(arctan_model):
    assert arctan_model.eval_h(0.0, 0.0, 0.0) == pytest.approx(math.pi)


def test_du_h(quad_lin, arctan_model):
    assert quad_lin.du_h(0.3, 1.0, 0.7) == pytest.approx(1.0)
    # (p^2+1)/(1+u^2) + 1 at p=2, u=1
    assert arctan_model.du_h(0.0, 2.0, 1.0) == pytest.approx(5.0 / 2.0 + 1.0)


@pytest.mark.parametrize("coupling", [
    NoCoupling(), LinearCoupling(parse("2 + sin(x)")), ArctanCoupling()],
    ids=["none", "linear", "arctan"])
def test_du_h_is_the_u_slope_of_eval_h(coupling):
    # H and du_H read one u-part, phi(x)*u + m(|p|, u), of each coupling
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("1 - exp(-x^2)"),
                             coupling=coupling)
    x, p, u = np.linspace(-3, 3, 7), np.linspace(-2, 2, 5)[:, None], 0.3
    slope = (model.eval_h(x, p[..., None], u + 1e-6)
             - model.eval_h(x, p[..., None], u - 1e-6)) / 2e-6
    du = np.broadcast_to(model.du_h(x, p[..., None], u), slope.shape)
    np.testing.assert_allclose(du, slope, rtol=1e-7, atol=1e-7)
    assert np.all(du >= model.phi(x))


def test_from_json_rejects_unknown_keys_and_ignores_bounds(quad_lin):
    for part, key in ((None, "foo"), ("kinetic", "tau"),
                      ("coupling", "kappa")):
        data = quad_lin.to_json()
        (data if part is None else data[part])[key] = 3
        where = "model." if part is None else f"model.{part}."
        with pytest.raises(ModelError, match=f"unknown key {where}{key}$"):
            HamiltonianModel.from_json(data)
    data = quad_lin.to_json()
    assert "bounds" not in json.dumps(data)
    data["coupling"]["bounds"] = {"kappa_lo": 5.0}
    assert HamiltonianModel.from_json(data) == quad_lin


@pytest.mark.parametrize("data, key", [
    ({"dim": 1, "potential": "x", "kinetic": {"type": "power"}},
     "model.kinetic.tau"),
    ({"dim": 1, "potential": "x", "kinetic": {"type": "tabulated",
                                              "values": [0, 1]}},
     "model.kinetic.dp"),
    ({"dim": 1, "potential": "x", "coupling": {"type": "linear"}},
     "model.coupling.phi"),
    ({"potential": "x"}, "model.dim"),
    ({"dim": 1}, "model.potential")])
def test_from_json_names_a_missing_key(data, key):
    with pytest.raises(ModelError, match=f"missing key {key}$"):
        HamiltonianModel.from_json(data)


def test_from_json_takes_only_an_object(quad_lin):
    with pytest.raises(ModelError, match="must be a JSON object"):
        HamiltonianModel.from_json(json.dumps(quad_lin.to_json()))


def test_closed_legendre_values(quad_lin):
    ev = LagrangianEvaluator(quad_lin)
    assert ev.uses_closed_form
    assert ev.legendre(0.0, 1.0, 0.0) == pytest.approx(0.5)
    assert ev.legendre(0.0, 0.0, 2.0) == pytest.approx(-2.0)
    # x enters additively through f
    assert ev.legendre(2.0, 1.0, 0.0) == pytest.approx(0.5 + 1 - math.exp(-4.0))


def test_fenchel_young(quad_lin):
    ev = LagrangianEvaluator(quad_lin)
    rng = np.random.RandomState(11)
    for _ in range(60):
        x, p, v, u = rng.uniform(-3, 3, size=4)
        lhs = ev.legendre(x, v, u) + quad_lin.eval_h(x, p, u)
        assert lhs >= p * v - 1e-12


def test_gridsup_matches_closed_form(quad_lin):
    ev = LagrangianEvaluator(quad_lin)
    assert ev.uses_closed_form
    rng = np.random.RandomState(5)
    for _ in range(25):
        x, v, u = rng.uniform(-2.5, 2.5, size=3)
        lattice = (ev._radial_sup(np.array([abs(v)]), u)[0]
                   + float(quad_lin.f(x)) - float(quad_lin.phi(x)) * u)
        assert lattice == pytest.approx(ev.legendre(x, v, u), abs=5e-5)


def test_gridsup_power_kinetic():
    model = HamiltonianModel(dim=1, kinetic=PowerKinetic(tau=3.0),
                             potential=parse("0"), coupling=NoCoupling())
    ev = LagrangianEvaluator(model)
    # sup_p [1.7 p - |p|^3/3] = |1.7|^{1.5}/1.5
    assert ev._radial_sup(np.array([1.7]), 0.0)[0] == pytest.approx(
        abs(1.7) ** 1.5 / 1.5, abs=5e-5)


def test_arctan_legendre_values(arctan_model):
    ev = LagrangianEvaluator(arctan_model)
    assert not ev.uses_closed_form
    # sup_p [-p^2/2 - (p^2+1) pi] = -pi at p = 0
    assert ev.legendre(0.0, 0.0, 0.0) == pytest.approx(-math.pi, abs=1e-12)
    # quadratic in p with maximum at p = 1/(1 + 2 pi)
    want = 1.0 / (2.0 * (1.0 + 2.0 * math.pi)) - math.pi
    assert ev.legendre(0.0, 1.0, 0.0) == pytest.approx(want, abs=5e-5)


def test_arctan_partial_u(arctan_model):
    ev = LagrangianEvaluator(arctan_model)
    # maximizer at v=0 is p=0: dL/du = -1/(1+u^2) - 1 = -2 at u=0
    assert ev.partial_u_l(0.0, 0.0, 0.0) == pytest.approx(-2.0, abs=1e-4)


def test_partial_u_linear_and_none(quad_lin):
    ev = LagrangianEvaluator(quad_lin)
    assert ev.partial_u_l(0.7, 1.0, 0.3) == pytest.approx(-1.0)
    bare = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                            potential=parse("1 - exp(-x^2)"))
    assert LagrangianEvaluator(bare).partial_u_l(0.7, 1.0, 0.3) == 0.0


def test_discount_index_quotient_and_degenerate(quad_lin):
    ev = LagrangianEvaluator(quad_lin)
    assert ev.discount_index(1.0, 0.5, 0.7, 0.2) == pytest.approx(-1.0)
    assert ev.discount_index(1.0, 0.5, 0.3, 0.3) == pytest.approx(-1.0)
    # symmetry in the two levels
    assert ev.discount_index(1.0, 0.5, 0.2, 0.7) == pytest.approx(
        ev.discount_index(1.0, 0.5, 0.7, 0.2))


def test_discount_index_resolves_nearby_levels(arctan_model):
    # levels a round-off apart, as at a well where the field is 0 to
    # rounding: the quotient of L ~ -pi over 1e-15 would be mostly rounding
    ev = LagrangianEvaluator(arctan_model)
    want = ev.partial_u_l(0.0, 0.0, 0.0)
    assert want == pytest.approx(-2.0, abs=1e-4)
    for a in (1e-15, -3e-16, 2.2e-14):
        assert ev.discount_index(0.0, 0.0, a, 0.0) == want


def test_discount_index_batched(quad_lin):
    ev = LagrangianEvaluator(quad_lin)
    a = np.array([0.7, 0.3, -0.1])
    b = np.array([0.2, 0.3, 0.4])
    out = ev.discount_index(np.ones(3), 0.5 * np.ones(3), a, b)
    np.testing.assert_allclose(out, -np.ones(3), atol=1e-12)


def test_index_nonpositive_for_monotone_models(arctan_model):
    ev = LagrangianEvaluator(arctan_model)
    rng = np.random.RandomState(2)
    for _ in range(20):
        x, v = rng.uniform(-2, 2, size=2)
        a, b = rng.uniform(-1.5, 1.5, size=2)
        assert ev.discount_index(x, v, a, b) <= 1e-10


def test_coupling_table_matches_exact(arctan_model):
    ev = LagrangianEvaluator(arctan_model)
    speeds = np.array([0.0, 0.5, 1.0, 2.0])
    table = ev.coupling_table(speeds, -1.0, 1.0)
    assert table.covers(-1.0, 1.0)
    u = np.array([-0.8, -0.3, 0.0, 0.4, 0.97])
    w = table.values(u)
    assert w.shape == (4, 5)
    for j, s in enumerate(speeds):
        for i, ui in enumerate(u):
            exact = ev.legendre(0.0, s, float(ui)) + ui  # strip -u and f(0)=0
            assert w[j, i] == pytest.approx(exact, abs=5e-5)


def test_coupling_table_value_and_slope(arctan_model):
    # the value is the values() entry; the slope is the cell's chord, close
    # to the exact dW/du = -(r*^2 + 1)/(1 + u^2), r* = s/(1 + 2A),
    # A = arctan(u) + shift, for the quadratic kinetic
    ev = LagrangianEvaluator(arctan_model)
    speeds = np.array([0.0, 0.5, 1.0, 2.0, 6.0])
    table = ev.coupling_table(speeds, -1.0, 1.0)
    u = np.array([-0.8, -0.3, 0.0, 0.4, 0.97, 0.97])
    j = np.array([0, 1, 2, 3, 4, 0])
    w, slope = table.value_and_slope(u, j)
    assert np.array_equal(w, table.values(u)[j, np.arange(len(u))])
    r = speeds[j] / (1.0 + 2.0 * (np.arctan(u) + math.pi))
    np.testing.assert_allclose(slope, -(r ** 2 + 1.0) / (1.0 + u ** 2),
                               rtol=0, atol=5e-3)
    assert np.all(slope < 0)


def test_tabulated_kinetic_interp_and_extent():
    # table of p^2/2 on [0, 3]
    dp = 0.05
    vals = tuple(0.5 * (dp * k) ** 2 for k in range(61))
    model = HamiltonianModel(dim=1, kinetic=TabulatedKinetic(dp=dp, values=vals),
                             potential=parse("0"))
    assert model.eval_h(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-3)
    ev = LagrangianEvaluator(model)
    assert ev._radial_sup(np.array([1.0]), 0.0)[0] == pytest.approx(
        0.5, abs=1e-3)
    with pytest.raises(ExtentError):
        ev._radial_sup(np.array([10.0]), 0.0)  # maximizer beyond the table


def test_extent_doubling_and_cap():
    model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                             potential=parse("0"))
    ev = LagrangianEvaluator(model)
    # maximizer p = v = 30 lies beyond the initial extent 20; doubling
    # reaches it
    assert ev._radial_sup(np.array([30.0]), 0.0)[0] == pytest.approx(
        450.0, abs=5e-5)
    with pytest.raises(ExtentError):
        ev._radial_sup(np.array([200.0]), 0.0)  # beyond the hard cap 160


def test_json_roundtrip(quad_lin, arctan_model):
    for model in (quad_lin, arctan_model):
        data = model.to_json()
        back = HamiltonianModel.from_json(data)
        rng = np.random.RandomState(1)
        for _ in range(10):
            x, p, u = rng.uniform(-2, 2, size=3)
            assert back.eval_h(x, p, u) == pytest.approx(
                model.eval_h(x, p, u), abs=1e-14)


def test_json_roundtrip_power_2d():
    model = HamiltonianModel(
        dim=2, kinetic=PowerKinetic(tau=3.0),
        potential=parse("1 - exp(-(x^2 + y^2))"),
        coupling=LinearCoupling(phi=parse("1")))
    back = HamiltonianModel.from_json(model.to_json())
    assert back.eval_h((0.3, -0.4), (1.0, 2.0), 0.5) == pytest.approx(
        model.eval_h((0.3, -0.4), (1.0, 2.0), 0.5))


def test_model_validation():
    with pytest.raises(ModelError):
        HamiltonianModel(dim=3, kinetic=QuadraticKinetic(), potential=parse("0"))
    with pytest.raises(ModelError):
        HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                         potential=parse("1 - exp(-y^2)"))
    with pytest.raises(ModelError):
        PowerKinetic(tau=1.0)


def test_assumptions_quadratic_linear(quad_lin):
    report = check_assumptions(quad_lin)
    for name in ("H1", "H2", "H3", "H4", "P1", "P2", "P3"):
        assert report[name].status == "verified-on-samples", (
            name, report[name].witness)


def test_assumptions_arctan(arctan_model):
    report = check_assumptions(arctan_model)
    assert report["H1"].status == "verified-on-samples"
    assert report["H3"].status == "verified-on-samples"
    # du_H grows like |p|^2: the global bound fails at larger radii
    assert report["H4"].status == "violated"
    assert report["H4"].witness["du_h"] > report["H4"].witness["local_cap"]
    # arctan is concave in u > 0: joint convexity fails
    assert report["P2"].status == "violated"


def test_h4_probes_every_x_sample():
    # phi = 2 + sin(x): du_H = phi(x), so the global cap is the largest
    # sampled phi, the same sample maximum that H3 reports
    model = HamiltonianModel(
        dim=1, kinetic=QuadraticKinetic(), potential=parse("1 - exp(-x^2)"),
        coupling=LinearCoupling(phi=parse("2 + sin(x)")))
    report = check_assumptions(model)
    assert report["H4"].status == "verified-on-samples"
    assert report["H4"].witness["kappa_hi"] == report["H3"].witness["kappa_hi"]


def test_ball_samples_2d_hold_the_origin_once():
    pts = hamiltonian._ball_samples(6.0, 13, 2)
    assert len(pts) == 1 + 2 * 13
    assert np.array_equal(pts[0], [0.0, 0.0])
    assert len(np.unique(pts, axis=0)) == len(pts)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1).max(), 6.0)


def test_assumptions_detect_nonmonotone():
    bad = HamiltonianModel(
        dim=1, kinetic=QuadraticKinetic(), potential=parse("1 - exp(-x^2)"),
        coupling=LinearCoupling(phi=parse("0 - 1")))
    report = check_assumptions(bad)
    assert report["H1"].status == "violated"
    assert report["H3"].status == "violated"


def test_assumptions_none_coupling():
    bare = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),
                            potential=parse("1 - exp(-x^2)"))
    report = check_assumptions(bare)
    assert report["H3"].status == "not-applicable"
    assert report["H4"].status == "not-applicable"


def test_lower_bound_m0(quad_lin):
    xs = np.linspace(-6, 6, 241)[:, None]
    # min_p H(x, p, 0) = -f(x); max over x is -min f = 0 at x = 0
    assert lower_bound_m0(quad_lin, xs) == pytest.approx(0.0, abs=1e-12)


def test_two_dimensional_eval():
    model = HamiltonianModel(
        dim=2, kinetic=QuadraticKinetic(),
        potential=parse("1 - exp(-(x^2 + y^2))"),
        coupling=LinearCoupling(phi=parse("1")))
    # H(0, (3,4), 2) = 25/2 - 0 + 2
    assert model.eval_h((0.0, 0.0), (3.0, 4.0), 2.0) == pytest.approx(14.5)
    ev = LagrangianEvaluator(model)
    assert ev.legendre((0.0, 0.0), (3.0, 4.0), 0.0) == pytest.approx(12.5)


def reference_radial_sup(model, speeds, u):
    """Lattice sup at the single level u, one speeds x lattice payoff per
    extent: the extent doubles while any speed's maximizer sits on the
    lattice edge (tabulated kinetics stay at their table extent).

    Returns the sups and the extent they were taken at.
    """
    speeds = np.asarray(speeds, dtype=float)

    def reduced_h(r):
        return model.kinetic.radial(r) + model.coupling.momentum_term(r, u)

    extent = P_EXTENT
    if isinstance(model.kinetic, TabulatedKinetic):
        extent = min(extent, model.kinetic.extent)
        r = _lattice(extent)
        payoff = np.outer(speeds, r) - reduced_h(r)[None, :]
        best = np.argmax(payoff, axis=1)
        if np.any(best == len(r) - 1):
            raise ExtentError("maximizer on the tabulated kinetic boundary")
        return payoff[np.arange(len(speeds)), best], extent
    while True:
        r = _lattice(extent)
        payoff = np.outer(speeds, r) - reduced_h(r)[None, :]
        best = np.argmax(payoff, axis=1)
        if not np.any(best == len(r) - 1):
            return payoff[np.arange(len(speeds)), best], extent
        if extent >= _EXTENT_CAP:
            raise ExtentError("maximizer escaped the momentum lattice")
        extent = min(2.0 * extent, _EXTENT_CAP)


def _speed_with_maximizer(model, r, u):
    """The speed whose maximizer is r: s = d/dr [kinetic + m](r, u)."""
    return (model.kinetic.radial(r + 1e-6) - model.kinetic.radial(r - 1e-6)
            + model.coupling.momentum_term(r + 1e-6, u)
            - model.coupling.momentum_term(r - 1e-6, u)) / 2e-6


_KINETICS = {
    "quadratic": QuadraticKinetic(),
    "power": PowerKinetic(tau=1.5),
    # p^2/2 tabulated on [0, 30]: the lattice stops at P_EXTENT = 20
    "tabulated": TabulatedKinetic(
        dp=0.05, values=tuple(0.5 * (0.05 * k) ** 2 for k in range(601))),
}
_COUPLINGS = {
    "none": NoCoupling(),
    "linear": LinearCoupling(phi=parse("1 + x^2")),
    "arctan": ArctanCoupling(shift=math.pi),
}


@pytest.mark.parametrize("coupling", sorted(_COUPLINGS))
@pytest.mark.parametrize("kinetic", sorted(_KINETICS))
def test_radial_sup_matches_per_level_reference(kinetic, coupling):
    model = HamiltonianModel(dim=1, kinetic=_KINETICS[kinetic],
                             potential=parse("0"),
                             coupling=_COUPLINGS[coupling])
    ev = LagrangianEvaluator(model)
    # -0.0 and 0.0 are one level of the evaluator, two of the reference
    levels = np.array([-10.0, -0.75, 0.0, 0.3, 2.5, -0.0])
    # fastest maximizer per level: 0, 1 and 2 doublings of the reference's
    # P_EXTENT = 20, which are 3, 4 and 5 doublings of the evaluator's first
    # extent P_EXTENT/8 (all inside the table for the tabulated kinetic)
    tops = ([5.0, 10.0, 15.0, 5.0, 10.0, 15.0] if kinetic == "tabulated"
            else [75.0, 35.0, 15.0, 75.0, 35.0, 15.0])
    top_speeds = [_speed_with_maximizer(model, r, u)
                  for r, u in zip(tops, levels)]
    speeds = np.linspace(0.0, 1.0, 233)[None, :] * np.array(top_speeds)[:, None]
    # maximizers at r = 3, 7 and 12: 1, 2 and 3 doublings of P_EXTENT/8 = 2.5
    speeds = np.hstack([speeds, [[_speed_with_maximizer(model, r, u)
                                  for r in (3.0, 7.0, 12.0)] for u in levels]])
    # several blocks per level
    assert speeds.shape[1] * len(_lattice(P_EXTENT)) > 4 * hamiltonian._BLOCK
    refs = [reference_radial_sup(model, s, float(u))
            for s, u in zip(speeds, levels)]
    extents = {extent for _, extent in refs}
    assert extents == ({20.0} if kinetic == "tabulated" else {20.0, 40.0, 80.0})
    want = np.stack([vals for vals, _ in refs])
    got = ev._radial_sup(speeds, levels[:, None])
    assert got.tobytes() == want.tobytes()
    # every pair three times over, shuffled into one flat call: each pair
    # still doubles on its own
    perm = np.random.RandomState(3).permutation(np.tile(np.arange(want.size),
                                                        3))
    flat_u = np.broadcast_to(levels[:, None], want.shape).reshape(-1)
    got = ev._radial_sup(speeds.reshape(-1)[perm], flat_u[perm])
    assert got.tobytes() == want.reshape(-1)[perm].tobytes()


@pytest.mark.parametrize("coupling", sorted(_COUPLINGS))
def test_radial_sup_on_a_table_shorter_than_the_first_extent(coupling):
    # p^2/2 tabulated on [0, 2], below P_EXTENT/8 = 2.5
    kinetic = TabulatedKinetic(
        dp=0.05, values=tuple(0.5 * (0.05 * k) ** 2 for k in range(41)))
    model = HamiltonianModel(dim=1, kinetic=kinetic, potential=parse("0"),
                             coupling=_COUPLINGS[coupling])
    ev = LagrangianEvaluator(model)
    assert kinetic.extent < hamiltonian._EXTENT_START
    levels = np.array([-0.0, 0.0, 0.3])
    speeds = np.stack([np.linspace(0.0, 1.0, 41)
                       * _speed_with_maximizer(model, 1.9, u)
                       for u in levels])
    want = np.stack([reference_radial_sup(model, s, float(u))[0]
                     for s, u in zip(speeds, levels)])
    got = ev._radial_sup(speeds, levels[:, None])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ExtentError):
        ev._radial_sup(np.array([_speed_with_maximizer(model, 2.2, 0.0)]),
                       0.0)


def test_coupling_table_matches_stacked_reference(arctan_model):
    ev = LagrangianEvaluator(arctan_model)
    speeds = np.linspace(0.0, 6.0, 97)
    table = ev.coupling_table(speeds, -1.3, 0.4)
    want = np.stack([reference_radial_sup(arctan_model, speeds, float(u))[0]
                     for u in table.u_grid])
    assert np.array_equal(table.w, want)


# one speeds x lattice payoff for 830 speeds alone takes 13 MB
_PEAK_BYTES = 4 << 20


def test_lattice_sup_memory_is_bounded(arctan_model):
    ev = LagrangianEvaluator(arctan_model)
    speeds = np.linspace(0.0, 6.0, 830)
    x = np.zeros(830)
    assert peak_bytes(lambda: ev.legendre(x, speeds, 0.4)) < _PEAK_BYTES
    assert peak_bytes(lambda: ev.partial_u_l(x, speeds, 0.4)) < _PEAK_BYTES
    assert peak_bytes(lambda: ev.coupling_table(
        speeds[:97], -1.0, 1.0)) < _PEAK_BYTES


def test_arctan_legendre_does_not_load_numpy_ma():
    # np.unique and the set routines import numpy.ma on first use, ~8 ms in
    # every fresh process; the lattice sup builds its block cuts without them
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from contact_hj.expressions import parse\n"
        "from contact_hj.hamiltonian import (ArctanCoupling, HamiltonianModel,"
        " LagrangianEvaluator, QuadraticKinetic)\n"
        "model = HamiltonianModel(dim=1, kinetic=QuadraticKinetic(),"
        " potential=parse('1 - exp(-x^2)'),"
        " coupling=ArctanCoupling(shift=math.pi))\n"
        "x = np.linspace(-1.0, 1.0, 7)[:, None]\n"
        "LagrangianEvaluator(model).legendre(x, 2.0 * x, 0.1 * x[:, 0])\n"
        "assert 'numpy.ma' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(hamiltonian.__file__))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
