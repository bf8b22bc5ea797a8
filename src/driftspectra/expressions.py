"""Small arithmetic grammar with analytic differentiation.

Grammar (command-line drift/warping/perturbation expressions):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative, numeric exponent
    atom   := NUMBER | "t" | "theta" | "pi" | FUNC "(" expr ")" | "(" expr ")"
    FUNC   := sin | cos | sinh | cosh | exp

This is a subset of Python's expression grammar with "^" for "**": the
text is parsed by `ast.parse`, never evaluated, and a whitelist walker
builds the `Node`s.  Rejected with ExpressionError: any other character
("_", ",", "#", quotes, non-ASCII), unary plus and every other operator,
attributes, conditionals, calls other than FUNC(expr), non-decimal
literals (0x10, 1j, True, and 007 as in Python), and nesting deeper than
a fixed bound, so evaluation and differentiation never exhaust the stack.
Expressions evaluate on numpy arrays and differentiate symbolically in
either variable, so the solvers receive exact derivatives.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass

import numpy as np

_FUNCS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
          "exp": np.exp}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ExpressionError(ValueError):
    pass


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple = ()
    value: float = 0.0

    # -- evaluation -------------------------------------------------------

    def __call__(self, t, theta=0.0):
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return self._eval(t, theta)

    def _eval(self, t, theta):
        op = self.op
        if op == "const":
            return np.broadcast_to(np.float64(self.value), np.broadcast_shapes(t.shape, theta.shape)).copy() \
                if (t.shape or theta.shape) else np.float64(self.value)
        if op == "t":
            return t * np.ones(np.broadcast_shapes(t.shape, theta.shape)) if theta.shape else t
        if op == "theta":
            return theta * np.ones(np.broadcast_shapes(t.shape, theta.shape)) if t.shape else theta
        if op in _ARITH:
            return _ARITH[op](self.args[0]._eval(t, theta), self.args[1]._eval(t, theta))
        if op == "neg":
            return -self.args[0]._eval(t, theta)
        if op == "pow":
            return self.args[0]._eval(t, theta) ** self.value
        return _FUNCS[op](self.args[0]._eval(t, theta))

    # -- symbolic derivative ------------------------------------------------

    def diff(self, var: str = "t") -> "Node":
        op = self.op
        if op == "const" or (op in ("t", "theta") and op != var):
            return Node("const", value=0.0)
        if op == var:
            return Node("const", value=1.0)
        if op in "+-":
            return _simplify(Node(op, (self.args[0].diff(var), self.args[1].diff(var))))
        if op == "*":
            f, g = self.args
            return _simplify(Node("+", (
                _simplify(Node("*", (f.diff(var), g))),
                _simplify(Node("*", (f, g.diff(var)))),
            )))
        if op == "/":
            f, g = self.args
            num = Node("-", (
                _simplify(Node("*", (f.diff(var), g))),
                _simplify(Node("*", (f, g.diff(var)))),
            ))
            return _simplify(Node("/", (_simplify(num), _simplify(Node("pow", (g,), 2.0)))))
        if op == "neg":
            return _simplify(Node("neg", (self.args[0].diff(var),)))
        if op == "pow":
            base = self.args[0]
            inner = _simplify(Node("pow", (base,), self.value - 1.0))
            outer = _simplify(Node("*", (Node("const", value=self.value), inner)))
            return _simplify(Node("*", (outer, base.diff(var))))
        outer = {"sin": Node("cos", self.args), "cos": Node("neg", (Node("sin", self.args),)),
                 "sinh": Node("cosh", self.args), "cosh": Node("sinh", self.args), "exp": self}[op]
        return _simplify(Node("*", (outer, self.args[0].diff(var))))

    def depends_on(self, var: str) -> bool:
        if self.op == var:
            return True
        return any(a.depends_on(var) for a in self.args)


def _is_const(n: Node, v=None) -> bool:
    return n.op == "const" and (v is None or n.value == v)


def _simplify(n: Node) -> Node:
    if n.op in ("const", "t", "theta"):
        return n
    a = n.args
    if n.op == "+":
        if _is_const(a[0], 0.0):
            return a[1]
        if _is_const(a[1], 0.0):
            return a[0]
        if _is_const(a[0]) and _is_const(a[1]):
            return Node("const", value=a[0].value + a[1].value)
    elif n.op == "-":
        if _is_const(a[1], 0.0):
            return a[0]
        if _is_const(a[0]) and _is_const(a[1]):
            return Node("const", value=a[0].value - a[1].value)
    elif n.op == "*":
        if _is_const(a[0], 0.0) or _is_const(a[1], 0.0):
            return Node("const", value=0.0)
        if _is_const(a[0], 1.0):
            return a[1]
        if _is_const(a[1], 1.0):
            return a[0]
        if _is_const(a[0]) and _is_const(a[1]):
            return Node("const", value=a[0].value * a[1].value)
    elif n.op == "/":
        if _is_const(a[0], 0.0):
            return Node("const", value=0.0)
        if _is_const(a[1], 1.0):
            return a[0]
    elif n.op == "neg":
        if _is_const(a[0]):
            return Node("const", value=-a[0].value)
    elif n.op == "pow":
        if n.value == 0.0:
            return Node("const", value=1.0)
        if n.value == 1.0:
            return a[0]
        if _is_const(a[0]):
            value = a[0].value ** n.value
            if isinstance(value, complex):
                raise ExpressionError(f"constant power ({a[0].value:g})^{n.value:g} is not real")
            return Node("const", value=value)
    return n


_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_NAMES = {"t": Node("t"), "theta": Node("theta"), "pi": Node("const", value=float(np.pi))}
_DECIMAL = frozenset("0123456789.eE+-")
_MAX_DEPTH = 100
_ECHO = 60  # most characters of rejected text a message quotes


def _quoted(text: str) -> str:
    """repr(text), cut to _ECHO characters and followed by the length when longer."""
    shown = repr(text)
    if len(shown) <= _ECHO:
        return shown
    return f"{shown[:_ECHO - 4]}...{shown[-1]} ({len(text)} characters)"


def _build(node: ast.AST, text: str, depth: int) -> Node:
    if depth > _MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {_MAX_DEPTH} levels")

    def sub(child):
        return _build(child, text, depth + 1)

    match node:
        case ast.BinOp(left, op, right) if type(op) in _BINOPS:
            return _simplify(Node(_BINOPS[type(op)], (sub(left), sub(right))))
        case ast.BinOp(left, ast.Pow(), right):
            base, exponent = sub(left), sub(right)
            if not _is_const(exponent):
                raise ExpressionError("exponents must be numeric constants")
            return _simplify(Node("pow", (base,), exponent.value))
        case ast.UnaryOp(ast.USub(), operand):
            return _simplify(Node("neg", (sub(operand),)))
        case ast.Constant(int() | float()) if set(ast.get_source_segment(text, node)) <= _DECIMAL:
            return Node("const", value=float(ast.get_source_segment(text, node)))
        case ast.Name(name) if name in _NAMES:
            return _NAMES[name]
        case ast.Call(ast.Name(name) as func, [arg], []) if name in _FUNCS:
            if func.col_offset == node.col_offset:  # not "(sin)(t)"
                return Node(name, (sub(arg),))
    raise ExpressionError(f"unsupported syntax {_quoted(ast.get_source_segment(text, node))}")


def parse_expression(text: str) -> Node:
    """Parse an expression in t (and theta) into a differentiable node."""
    text = " ".join(text.replace("^", "**").split())
    if not all(c.isascii() and (c.isalnum() or c in ".()+-*/ ") for c in text):
        raise ExpressionError(f"unsupported characters in {_quoted(text)}")
    try:
        tree = ast.parse(text, mode="eval")
    except (RecursionError, MemoryError):  # too deep for CPython's parser
        raise ExpressionError(f"malformed expression {_quoted(text)}: nested too deeply") from None
    except (SyntaxError, ValueError) as exc:  # ValueError: an integer literal of 5000 digits
        reason = ": nested too deeply" if "nested" in str(exc) else ""  # CPython's paren limit
        raise ExpressionError(f"malformed expression {_quoted(text)}{reason}") from None
    try:
        return _build(tree.body, text, 0)
    except ArithmeticError as exc:  # a folded constant power such as 0^-1 or 10^400
        raise ExpressionError(f"constant power out of range: {exc}") from None
