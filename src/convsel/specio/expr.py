"""Tiny arithmetic expression language used by the JSON problem format.

Grammar (loosest binding first)::

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" ["-"] integer)?
    atom   := number | "x<k>" | func "(" expr ("," expr)? ")" | "(" expr ")"

``^`` binds tighter than unary minus, so ``-x1^2`` is ``-(x1^2)``.
Exponents are integer literals only.  Functions: ``abs``, ``sqrt``
(one argument), ``min``, ``max`` (two arguments).  Variables are
``x1 .. xn``; anything else is an unknown identifier.

Offsets in error messages are zero-based character positions into the
source string.

:func:`evaluate_many` walks the AST once over an ``(N, n)`` array of
points and returns the ``(N,)`` values, each the value of Python float
arithmetic at that row, bit for bit: the arithmetic, ``abs``, ``neg`` and
``sqrt`` are correctly rounded in numpy as in Python, and ``min`` /
``max`` pick the operand Python's do (:func:`convsel.fields.pymin`).
``^`` is ``np.float_power``, the C ``pow`` that Python's ``float ** int``
calls after its special cases, and not ``np.power``, whose results differ
from Python's in the last bit for some bases (``x = -0.3902108345010009``:
``x**2`` is ``0.15226449536196754``, ``np.power(x, 2)`` is
``0.1522644953619675``).  One special case is Python's own: to a nonzero
power, a NaN base is returned as it is, sign and payload kept.  A finite
base whose power is infinite is a row where Python raises (``0 ** -k``,
overflow).
Where some row leaves the numeric domain, it raises
:class:`EvalDomainError` with the message of one such row; callers that
need the first failing row's error search the batch by halves
(``fields._outermost_many``).
:func:`evaluate` is a batch of one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from convsel.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from convsel.fields import pymax, pymin

_UNARY_FUNCS = ("abs", "sqrt")
_BINARY_FUNCS = ("min", "max")


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based; prints as x<index+1>


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "abs" | "sqrt"
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # "add" | "sub" | "mul" | "div" | "min" | "max"
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Const | Var | Unary | Binary | Pow


# --- tokenizer ------------------------------------------------------------

_SYMBOLS = "+-*/^(),"


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "sym" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _SYMBOLS:
            out.append(_Token("sym", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", i) from None
            out.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            out.append(_Token("ident", source[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    out.append(_Token("end", "", n))
    return out


# --- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise ExprSyntaxError(f"expected {sym!r}", tok.pos)
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            node = Binary("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            node = Binary("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.next()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "^":
            self.next()
            sign = 1
            tok = self.peek()
            if tok.kind == "sym" and tok.text == "-":
                self.next()
                sign = -1
                tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
            self.next()
            node = Pow(node, sign * int(tok.text))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if self.peek().kind == "sym" and self.peek().text == "(":
                return self.call(name, tok.pos)
            if len(name) > 1 and name[0] == "x" and name[1:].isdigit():
                index = int(name[1:])
                if index < 1:
                    raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.pos)
                return Var(index - 1)
            raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.pos)
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            node = self.expr()
            self.expect_sym(")")
            return node
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of expression", tok.pos)
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)

    def call(self, name: str, pos: int) -> Node:
        if name not in _UNARY_FUNCS and name not in _BINARY_FUNCS:
            raise UnknownIdentifierError(f"unknown function {name!r}", pos)
        self.expect_sym("(")
        first = self.expr()
        if name in _UNARY_FUNCS:
            self.expect_sym(")")
            return Unary(name, first)
        self.expect_sym(",")
        second = self.expr()
        self.expect_sym(")")
        return Binary(name, first, second)


def parse_expr(source: str) -> Node:
    """Parse ``source`` into an AST, raising :class:`ExprSyntaxError` on bad input."""
    return _Parser(source).parse()


# --- evaluation -----------------------------------------------------------


def evaluate(node: Node, point) -> float:
    """Evaluate ``node`` at ``point`` (a sequence of coordinates), as a
    batch of one row."""
    return float(evaluate_many(node, np.asarray(point, dtype=float)[None])[0])


def evaluate_many(node: Node, X: np.ndarray) -> np.ndarray:
    """Evaluate ``node`` at every row of ``X`` (shape (N, n)); raises
    :class:`EvalDomainError` where some row leaves the numeric domain."""
    # no warnings: inf - inf is NaN, as in Python, and the domain errors are
    # raised from the values
    with np.errstate(all="ignore"):
        return _many(node, X)


def _many(node: Node, X: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return np.full(X.shape[0], node.value)
    if isinstance(node, Var):
        if node.index >= X.shape[1]:
            raise EvalDomainError(
                f"expression uses x{node.index + 1} but the point has "
                f"{X.shape[1]} coordinates"
            )
        return X[:, node.index]
    if isinstance(node, Unary):
        v = _many(node.arg, X)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return np.abs(v)
        if (v < 0.0).any():
            raise EvalDomainError(f"sqrt of negative value {v[v < 0.0][0]}")
        return np.sqrt(v)
    if isinstance(node, Pow):
        v = _many(node.base, X)
        out = np.float_power(v, node.exponent)
        failed = np.isinf(out) & np.isfinite(v)
        if failed.any():
            raise EvalDomainError(
                f"cannot raise {float(v[np.argmax(failed)])} to power {node.exponent}"
            )
        if node.exponent:
            np.copyto(out, v, where=np.isnan(v))
        return out
    lhs = _many(node.lhs, X)
    rhs = _many(node.rhs, X)
    if node.op == "add":
        return lhs + rhs
    if node.op == "sub":
        return lhs - rhs
    if node.op == "mul":
        return lhs * rhs
    if node.op == "div":
        if (rhs == 0.0).any():
            raise EvalDomainError("division by zero")
        return lhs / rhs
    if node.op == "min":
        return pymin(lhs, rhs)
    return pymax(lhs, rhs)


def max_var_index(node: Node) -> int:
    """Largest zero-based variable index used, or -1 for constant expressions."""
    if isinstance(node, Const):
        return -1
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Unary):
        return max_var_index(node.arg)
    if isinstance(node, Pow):
        return max_var_index(node.base)
    return max(max_var_index(node.lhs), max_var_index(node.rhs))


# --- printing -------------------------------------------------------------

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def to_source(node: Node) -> str:
    """Render the AST as parseable source; reparsing gives an equal AST."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-({to_source(node.arg)})"
        return f"{node.op}({to_source(node.arg)})"
    if isinstance(node, Pow):
        return f"({to_source(node.base)})^{node.exponent}"
    if node.op in _BINARY_SYMBOL:
        sym = _BINARY_SYMBOL[node.op]
        return f"({to_source(node.lhs)} {sym} {to_source(node.rhs)})"
    return f"{node.op}({to_source(node.lhs)}, {to_source(node.rhs)})"
