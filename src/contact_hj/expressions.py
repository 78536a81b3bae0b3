"""Closed-form scalar expression trees.

Potentials and coupling coefficients are stored as tiny expression trees so
that model definitions serialize to plain strings in config files and
round-trip exactly. The grammar is a subset of Python expression syntax: the
binary operators + - * / and the power, written ^ or **; unary - and +;
parentheses; finite decimal number literals; the constant pi; the variables
x (and y in two dimensions); and one-argument calls of exp, sin and cos.
parse reads a string with Python's ast module and rejects every other node,
and every tree deeper than MAX_DEPTH. Trees evaluate vectorized over numpy
arrays and render back to strings with str().
"""

import ast
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "parse", "ParseError", "coordinate_names", "point_env",
           "MAX_DEPTH"]

# Evaluation and str recurse per tree level; this keeps both well inside
# Python's default recursion limit, with room for the driver's own frames.
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
            return Expr("num", value=math.pi)
        case ast.Call(func=ast.Name(id=fn), args=[arg],
                      keywords=[]) if fn in _FUNCTIONS:
            return Expr("call", name=fn,
                        args=(_convert(arg, src, depth + 1),))
    literal = src[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(literal):
        value = float(literal)
        if math.isfinite(value):
            return Expr("num", value=value)
        raise ParseError(f"number {literal!r} is not finite")
    raise ParseError(f"unsupported expression {literal!r}")
