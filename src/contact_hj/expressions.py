"""Closed-form scalar expression trees.

Potentials, coupling coefficients, and test functions are stored as tiny
expression trees so that model definitions serialize to plain strings in
config files and round-trip exactly. The grammar is a subset of Python
expression syntax: the binary operators + - * / and the power, written ^ or
**; unary - and +; parentheses; finite decimal number literals; the constant
pi; the variables x (and y in two dimensions); and one-argument calls of exp,
sin and cos. parse reads a string with Python's ast module and rejects every
other node, and every tree deeper than MAX_DEPTH. Trees evaluate vectorized
over numpy arrays and support exact symbolic differentiation, which is what
the test-function battery uses for gradient rules.
"""

import ast
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "parse", "ParseError", "coordinate_names", "point_env",
           "MAX_DEPTH"]

# Evaluation, diff and str recurse per tree level, and a derivative can be
# three times deeper than its tree; this keeps both well inside Python's
# default recursion limit, with room for the driver's own frames.
MAX_DEPTH = 100


class ParseError(ValueError):
    pass


_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_VARIABLES = ("x", "y")


def coordinate_names(dim: int) -> tuple:
    """The variable names of the coordinates of a dim-dimensional point."""
    return _VARIABLES[:dim]


def point_env(pts: np.ndarray) -> dict:
    """Bind the coordinate names to the columns of (..., dim) points."""
    return {name: pts[..., i]
            for i, name in enumerate(_VARIABLES[:pts.shape[-1]])}


@dataclass(frozen=True)
class Expr:
    """A node of the expression tree.

    kind is one of "num", "var", "neg", "add", "sub", "mul", "div", "pow",
    "call". Children are stored in args; numeric payloads in value/name.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    args: tuple = ()

    # -- evaluation -------------------------------------------------------

    def __call__(self, **env):
        k = self.kind
        if k == "num":
            return self.value
        if k == "var":
            if self.name not in env:
                raise ParseError(f"unbound variable {self.name!r}")
            return env[self.name]
        if k == "neg":
            return -self.args[0](**env)
        a = self.args[0](**env)
        if k == "call":
            return _FUNCTIONS[self.name](a)
        b = self.args[1](**env)
        if k == "add":
            return a + b
        if k == "sub":
            return a - b
        if k == "mul":
            return a * b
        if k == "div":
            return a / b
        if k == "pow":
            return a ** b
        raise AssertionError(k)

    # -- differentiation --------------------------------------------------

    def diff(self, var: str) -> "Expr":
        k = self.kind
        if k == "num":
            return _num(0.0)
        if k == "var":
            return _num(1.0 if self.name == var else 0.0)
        if k == "neg":
            return _neg(self.args[0].diff(var))
        if k == "add":
            return _add(self.args[0].diff(var), self.args[1].diff(var))
        if k == "sub":
            return _sub(self.args[0].diff(var), self.args[1].diff(var))
        if k == "mul":
            a, b = self.args
            return _add(_mul(a.diff(var), b), _mul(a, b.diff(var)))
        if k == "div":
            a, b = self.args
            num = _sub(_mul(a.diff(var), b), _mul(a, b.diff(var)))
            return _div(num, _pow(b, _num(2.0)))
        if k == "pow":
            a, b = self.args
            if b.kind != "num":
                raise ParseError("only constant exponents are differentiable")
            return _mul(_mul(b, _pow(a, _num(b.value - 1.0))), a.diff(var))
        if k == "call":
            inner = self.args[0]
            d = inner.diff(var)
            if self.name == "exp":
                return _mul(self, d)
            if self.name == "sin":
                return _mul(_call("cos", inner), d)
            if self.name == "cos":
                return _neg(_mul(_call("sin", inner), d))
        raise AssertionError(k)

    # -- serialization ----------------------------------------------------

    def __str__(self):
        return _render(self, 0)

    @property
    def variables(self) -> set:
        if self.kind == "var":
            return {self.name}
        out = set()
        for a in self.args:
            out |= a.variables
        return out


# smart constructors with light constant folding, used by diff()

def _num(v: float) -> Expr:
    return Expr("num", value=float(v))


def _neg(a: Expr) -> Expr:
    if a.kind == "num":
        return _num(-a.value)
    return Expr("neg", args=(a,))


def _add(a: Expr, b: Expr) -> Expr:
    if a.kind == "num" and a.value == 0.0:
        return b
    if b.kind == "num" and b.value == 0.0:
        return a
    if a.kind == "num" and b.kind == "num":
        return _num(a.value + b.value)
    return Expr("add", args=(a, b))


def _sub(a: Expr, b: Expr) -> Expr:
    if b.kind == "num" and b.value == 0.0:
        return a
    if a.kind == "num" and a.value == 0.0:
        return _neg(b)
    if a.kind == "num" and b.kind == "num":
        return _num(a.value - b.value)
    return Expr("sub", args=(a, b))


def _mul(a: Expr, b: Expr) -> Expr:
    for u, v in ((a, b), (b, a)):
        if u.kind == "num":
            if u.value == 0.0:
                return _num(0.0)
            if u.value == 1.0:
                return v
    if a.kind == "num" and b.kind == "num":
        return _num(a.value * b.value)
    return Expr("mul", args=(a, b))


def _div(a: Expr, b: Expr) -> Expr:
    if a.kind == "num" and a.value == 0.0:
        return _num(0.0)
    if b.kind == "num" and b.value == 1.0:
        return a
    return Expr("div", args=(a, b))


def _pow(a: Expr, b: Expr) -> Expr:
    if b.kind == "num":
        if b.value == 0.0:
            return _num(1.0)
        if b.value == 1.0:
            return a
    return Expr("pow", args=(a, b))


def _call(fn: str, a: Expr) -> Expr:
    return Expr("call", name=fn, args=(a,))


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}


def _render(e: Expr, parent_prec: int) -> str:
    k = e.kind
    if k == "num":
        v = e.value
        if v == int(v) and abs(v) < 1e15:
            s = repr(int(v))
        else:
            s = repr(v)
        return s if v >= 0 or parent_prec == 0 else f"({s})"
    if k == "var":
        return e.name
    if k == "call":
        return f"{e.name}({_render(e.args[0], 0)})"
    if k == "neg":
        s = "-" + _render(e.args[0], _PRECEDENCE["neg"])
        return f"({s})" if parent_prec > _PRECEDENCE["neg"] else s
    op = {"add": " + ", "sub": " - ", "mul": "*", "div": "/", "pow": "**"}[k]
    prec = _PRECEDENCE[k]
    left = _render(e.args[0], prec)
    # right operand of - / ** binds tighter
    right = _render(e.args[1], prec + (0 if k in ("add", "mul") else 1))
    s = f"{left}{op}{right}"
    return f"({s})" if parent_prec > prec else s


# -- parser ---------------------------------------------------------------

_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
           ast.Pow: "pow"}


def parse(text: str) -> Expr:
    """Parse a scalar expression string into an Expr tree.

    Whitespace is collapsed, decimal digits become ASCII, leading zeros of
    numbers (01) go and ^ becomes **; Python's parser builds the syntax tree
    and any node outside the module docstring's grammar, or nested more than
    MAX_DEPTH levels deep, raises ParseError.
    """
    src = re.sub(r"\d", lambda m: str(int(m[0])), " ".join(text.split()))
    bad = re.search(r"[^\w.+\-*/()^ ]", src, re.ASCII)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r} in {text!r}")
    src = re.sub(r"(?<![\w.])0+(?=\d)", "", src).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
            body = ast.parse(src, mode="eval").body
        return _convert(body, src)
    except SyntaxError as exc:
        raise ParseError(f"invalid expression {text!r}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


def _convert(node: ast.expr, src: str, depth: int = 1) -> Expr:
    if depth > MAX_DEPTH:
        raise ParseError(f"expression is nested more than {MAX_DEPTH} "
                         "levels deep")
    match node:
        case ast.BinOp(op=op, left=left, right=right) if type(op) in _BINARY:
            return Expr(_BINARY[type(op)],
                        args=(_convert(left, src, depth + 1),
                              _convert(right, src, depth + 1)))
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            return Expr("neg", args=(_convert(operand, src, depth + 1),))
        case ast.UnaryOp(op=ast.UAdd(), operand=operand):
            return _convert(operand, src, depth + 1)
        case ast.Name(id=name) if name in _VARIABLES:
            return Expr("var", name=name)
        case ast.Name(id="pi"):
            return _num(math.pi)
        case ast.Call(func=ast.Name(id=fn), args=[arg],
                      keywords=[]) if fn in _FUNCTIONS:
            return _call(fn, _convert(arg, src, depth + 1))
    literal = src[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(literal):
        value = float(literal)
        if math.isfinite(value):
            return _num(value)
        raise ParseError(f"number {literal!r} is not finite")
    raise ParseError(f"unsupported expression {literal!r}")
