"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths:
nearest points come from dense sampling, expression values from a
separate tree walk.  Tests compare library output against these.
"""

from __future__ import annotations

import operator
from pathlib import Path

import numpy as np
import pytest

from convsel.geometry import Ball, ConvexBody, HPolytope, Interval, IntervalBatch
from convsel.maps import Region
from convsel.specio import expr

SPECS = Path(__file__).parent / "specs"


@pytest.fixture
def specs_dir() -> Path:
    return SPECS


# --- hand-written maps ---------------------------------------------------

#: The two strata of the punctured line, as batches.
NONZERO = Region("x != 0", batch=lambda X: X[:, 0] != 0.0)
ORIGIN = Region("x == 0", batch=lambda X: X[:, 0] == 0.0)


def constant_rule(body: ConvexBody):
    """The piece rule whose body is ``body`` at every row."""
    return lambda X: body._row.take(np.zeros(X.shape[0], dtype=np.intp))


def interval_rule(lo, hi):
    """The piece rule ``[lo(X), hi(X)]``, each bound a function of the
    (N, n) points or a number."""

    def bound(b, X):
        return b(X) if callable(b) else np.full(X.shape[0], float(b))

    return lambda X: IntervalBatch(bound(lo, X), bound(hi, X))


# --- geometry oracles ---------------------------------------------------


def sample_in_body(body: ConvexBody, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples inside a bounded body, by rejection in its box."""
    lo, hi = body.sample_bounds()
    if np.all(hi - lo <= 1e-12):  # a single point; nothing to reject
        return np.tile(0.5 * (lo + hi), (count, 1))
    out = []
    have = 0
    for _ in range(400):
        cand = rng.uniform(lo, hi, size=(max(4 * count, 1024), body.dim))
        keep = cand[body.contains_many(cand, tol=0.0)]
        if keep.size:
            out.append(keep)
            have += keep.shape[0]
        if have >= count:
            break
    if not out:
        raise AssertionError(f"could not sample {body!r}")
    return np.vstack(out)[:count]


def sampled_min_norm(body: ConvexBody, count: int, rng: np.random.Generator) -> float:
    """Smallest norm among ``count`` uniform members — an upper-bound oracle
    for the true least norm."""
    pts = sample_in_body(body, count, rng)
    return float(np.min(np.linalg.norm(pts, axis=1)))


def random_body(rng: np.random.Generator, m: int) -> ConvexBody:
    """A random bounded nonempty body: interval (m=1), ball, or a box cut
    by a few halfspaces through an interior point (guaranteed feasible)."""
    kind = rng.integers(0, 3 if m == 1 else 2)
    if m == 1 and kind == 0:
        a, b = np.sort(rng.uniform(-5, 5, size=2))
        return Interval(a, b)
    if kind == (0 if m > 1 else 1):
        center = rng.uniform(-4, 4, size=m)
        return Ball(center, rng.uniform(0.2, 3.0))
    lo = rng.uniform(-5, 0, size=m)
    hi = lo + rng.uniform(0.5, 5.0, size=m)
    inner = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
    box = HPolytope.from_box(lo, hi)
    k = int(rng.integers(1, 5))
    A = rng.normal(size=(k, m))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = A @ inner + rng.uniform(0.1, 1.5, size=k)  # inner point stays feasible
    return HPolytope(
        np.vstack([box.A, A]), np.concatenate([box.b, b]), bounding_box=(lo, hi)
    )


# --- bitwise comparison -------------------------------------------------


def assert_same_bits(values, reference):
    """Equal float arrays, bit for bit: signed zeros and NaNs included."""
    np.testing.assert_array_equal(
        np.asarray(values, dtype=float).view(np.uint64),
        np.asarray(reference, dtype=float).view(np.uint64),
    )


# --- expression oracle ----------------------------------------------------

_REF_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "min": min,
    "max": max,
}


def ref_eval(node, point) -> float:
    """Reference tree walk, written separately from the library's."""
    if isinstance(node, expr.Const):
        return node.value
    if isinstance(node, expr.Var):
        return float(point[node.index])
    if isinstance(node, expr.Unary):
        v = ref_eval(node.arg, point)
        if node.op == "neg":
            return operator.neg(v)
        if node.op == "abs":
            return operator.abs(v)
        if v < 0:
            raise ArithmeticError("sqrt domain")
        return v**0.5
    if isinstance(node, expr.Pow):
        v = ref_eval(node.base, point)
        if v == 0 and node.exponent < 0:
            raise ArithmeticError("pow domain")
        return operator.pow(v, node.exponent)
    lhs = ref_eval(node.lhs, point)
    rhs = ref_eval(node.rhs, point)
    if node.op == "div" and rhs == 0:
        raise ArithmeticError("division by zero")
    return _REF_BINARY[node.op](lhs, rhs)


def random_ast(rng: np.random.Generator, depth: int, n_vars: int, exponents=(-2, 3)):
    """Random well-formed AST of the expression language, depth <= ``depth``,
    with ``^`` exponents drawn from the closed range ``exponents``."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return expr.Const(float(np.round(rng.uniform(0, 4), 3)))
        return expr.Var(int(rng.integers(0, n_vars)))
    pick = rng.random()
    if pick < 0.25:
        op = ("neg", "abs", "sqrt")[rng.integers(0, 3)]
        return expr.Unary(op, random_ast(rng, depth - 1, n_vars, exponents))
    if pick < 0.35:
        low, high = exponents
        return expr.Pow(
            random_ast(rng, depth - 1, n_vars, exponents), int(rng.integers(low, high + 1))
        )
    op = ("add", "sub", "mul", "div", "min", "max")[rng.integers(0, 6)]
    return expr.Binary(
        op,
        random_ast(rng, depth - 1, n_vars, exponents),
        random_ast(rng, depth - 1, n_vars, exponents),
    )
