import math

import numpy as np
import pytest

from contact_hj.expressions import MAX_DEPTH, ParseError, parse


def test_parse_arithmetic():
    e = parse("1 - exp(-x^2)")
    assert e(x=0.0) == pytest.approx(0.0)
    assert e(x=2.0) == pytest.approx(1 - math.exp(-4.0))


def test_parse_vectorized():
    e = parse("2 + sin(x)")
    x = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(e(x=x), 2 + np.sin(x))


def test_two_variables():
    e = parse("1 - exp(-(x^2 + y^2))")
    assert e.variables == {"x", "y"}
    assert e(x=1.0, y=2.0) == pytest.approx(1 - math.exp(-5.0))


def test_precedence_and_unary():
    assert parse("-2^2")(x=0.0) == pytest.approx(-4.0)  # power binds tighter
    assert parse("2*3 + 4")(x=0.0) == pytest.approx(10.0)
    assert parse("2^3^2")(x=0.0) == pytest.approx(512.0)  # right associative


def test_pi_constant():
    assert parse("pi")() == pytest.approx(math.pi)


def test_roundtrip_through_str():
    texts = ["1 - exp(-x^2)", "2 + sin(x)", "x^3 - 2*x + 1",
             "cos(x)*sin(y) / (1 + x^2)"]
    rng = np.random.RandomState(7)
    pts = rng.uniform(-2, 2, size=(50, 2))
    for t in texts:
        e = parse(t)
        e2 = parse(str(e))
        v1 = e(x=pts[:, 0], y=pts[:, 1])
        v2 = e2(x=pts[:, 0], y=pts[:, 1])
        np.testing.assert_array_equal(np.broadcast_to(v1, (50,)),
                                      np.broadcast_to(v2, (50,)))


def test_diff_matches_finite_difference():
    rng = np.random.RandomState(3)
    for t in ["1 - exp(-x^2)", "2 + sin(x)", "x^3 - 2*x + 1", "x*cos(x)"]:
        e = parse(t)
        d = e.diff("x")
        x = rng.uniform(-2, 2, size=40)
        h = 1e-6
        fd = (e(x=x + h) - e(x=x - h)) / (2 * h)
        np.testing.assert_allclose(np.broadcast_to(d(x=x), x.shape), fd,
                                   atol=1e-7, rtol=1e-6)


def test_diff_two_variables():
    e = parse("x*y + sin(y)")
    assert e.diff("x")(x=0.0, y=3.0) == pytest.approx(3.0)
    assert e.diff("y")(x=2.0, y=0.0) == pytest.approx(3.0)


def test_parse_errors():
    for bad in ["", "x +", "(x", "x ** ** 2", "foo(x)", "x $ 2"]:
        with pytest.raises(ParseError):
            parse(bad)


def test_nonconstant_exponent_diff_rejected():
    with pytest.raises(ParseError):
        parse("x^x").diff("x")


@pytest.mark.parametrize("text, rendered", [
    ("01 + x", "1 + x"),
    ("+x", "x"),
    ("x^2**3 - 2**x^2", "x**(2**3) - 2**(x**2)"),
    ("x\t+\n1", "x + 1"),
    (".5", "0.5"),
    ("3.", "3"),
    ("2E+2", "200"),
])
def test_parse_accepts_grammar_forms(text, rendered):
    assert str(parse(text)) == rendered


@pytest.mark.parametrize("text", [
    "0x10", "1_0", "1j", "True", "x # c", "x < 1", "x if x else 1",
    "exp(x, x)", "exp(x=1)", "x.real", "[x]", "lambda: 1", "e",
])
def test_parse_rejects_python_only_forms(text):
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("text", ["1.2.3", "1.5e", "1e400*x^2"])
def test_parse_rejects_malformed_and_non_finite_numbers(text):
    with pytest.raises(ParseError):
        parse(text)


def test_parse_emits_no_syntax_warning(recwarn):
    for bad in ["2x", "1and x"]:
        with pytest.raises(ParseError):
            parse(bad)
    assert not [w for w in recwarn if issubclass(w.category, SyntaxWarning)]


_DEEP_FORMS = {
    "sum": lambda d: "+".join(["x"] * d),
    "negation": lambda d: "-" * (d - 1) + "x",
    "quotient": lambda d: "/".join(["x"] * d),
    "call": lambda d: "cos(" * (d - 1) + "x" + ")" * (d - 1),
}


def _with_frames(frames, fn):
    # stands in for the driver frames below a model evaluation
    return fn() if frames == 0 else _with_frames(frames - 1, fn)


@pytest.mark.parametrize("form", sorted(_DEEP_FORMS))
def test_depth_bound(form):
    deepest = parse(_DEEP_FORMS[form](MAX_DEPTH))
    xs = np.linspace(0.5, 1.5, 5)

    def use():
        deepest(x=xs)
        str(deepest)
        grad = deepest.diff("x")
        grad(x=xs)
        return str(grad)

    assert _with_frames(300, use)
    with pytest.raises(ParseError, match="nested more than"):
        parse(_DEEP_FORMS[form](MAX_DEPTH + 1))
