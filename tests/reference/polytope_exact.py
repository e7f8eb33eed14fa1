"""Exact answers for small polytopes ``{y : A y <= b}``, in rational
arithmetic: the oracle that both polytope solvers are checked against.

Every float is a rational, so ``fractions.Fraction`` decides each question
about the float data exactly.  The oracle enumerates every independent
row subset S of size at most m (at most 64 for p <= 7 rows in R^m with
m <= 3):

* the point of the flat ``{A_S y = b_S}`` nearest the origin, kept when it
  satisfies every row: these are the kernel's candidates for the origin
  that lie in the body, so the nearest of them is the least-norm point,
  they include a point of every minimal face (each vertex, when the body
  has any), and there are none exactly when the body is empty;
* whether ``+-e_j`` is a nonnegative combination of the rows of S: by
  Farkas and Caratheodory, ``y_j`` is bounded above (below) on a nonempty
  body exactly when some independent S combines ``e_j`` (``-e_j``);
* whether it is one to the solvers' slack, the kernel's rule in exact
  arithmetic: ``+-e_j`` within ``_SPAN_TOL`` of the span of S, with unit-row
  multipliers of either sign within ``_SEIDEL_SLACK``.  Normals on a
  decimal lattice are not that lattice in binary, so a coordinate can be
  unbounded exactly only through a multiplier of 1e-19 that rounding
  cannot see; outside this band a float verdict must be exact.

A bounded coordinate is extreme on a minimal face, and constant on it, so
its bound is the least (greatest) value among those members.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from convsel.geometry import _SEIDEL_SLACK, _SPAN_TOL


def _rational(M) -> list:
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(M)]


def _solve(M: list, v: list) -> list | None:
    """The solution of the square system ``M x = v`` by Gauss-Jordan
    elimination, or None when ``M`` is singular."""
    n = len(M)
    rows = [M[i][:] + [v[i]] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


class ExactPolytope:
    """``{y : A y <= b}`` for p <= 7 rows in R^m with m <= 3, solved exactly."""

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        assert A.shape[0] <= 7 and A.shape[1] <= 3
        self.m = A.shape[1]
        self.A, self.b = _rational(A), [Fraction(float(v)) for v in np.ravel(b)]
        self.points = []  # the members among the flats' points nearest the origin
        self.bounded = np.zeros((2, self.m), dtype=bool)  # below, above
        self.nearly_bounded = np.zeros((2, self.m), dtype=bool)
        for k in range(min(len(self.A), self.m) + 1):
            for S in itertools.combinations(range(len(self.A)), k):
                self._take(S)

    def _take(self, S) -> None:
        AS = [self.A[i] for i in S]
        gram = [[_dot(u, v) for v in AS] for u in AS]
        if S and _solve(gram, [Fraction(0)] * len(S)) is None:
            return  # dependent rows
        # y = A_S^T (A_S A_S^T)^-1 b_S: on the flat, and normal to it
        mu = _solve(gram, [self.b[i] for i in S]) if S else []
        y = [_dot(mu, [a[j] for a in AS]) for j in range(self.m)]
        if all(_dot(a, y) <= bi for a, bi in zip(self.A, self.b)):
            self.points.append(y)
        for j in range(self.m):
            # lam combines the part of e_j in the span of S, off2 is the rest's
            column = [a[j] for a in AS]
            lam = _solve(gram, column) if S else []
            off2 = 1 - _dot(lam, column)
            for side, sign in enumerate((-1, 1)):
                if off2 == 0 and all(sign * v >= 0 for v in lam):
                    self.bounded[side, j] = True
                if off2 <= _SPAN_TOL**2 and all(
                        sign * v >= 0 or v * v * _dot(a, a) <= _SEIDEL_SLACK**2
                        for v, a in zip(lam, AS)):
                    self.nearly_bounded[side, j] = True

    @property
    def empty(self) -> bool:
        return not self.points

    def coord_extremes(self) -> tuple:
        """``(lo, hi, arg_lo, arg_hi)`` as :meth:`ConvexBody.coord_extremes`
        gives them, each rounded to the nearest float: the bounds, +-inf
        where unbounded, and the least-norm point attaining each (NaN where
        infinite)."""
        assert not self.empty
        out = [np.full(self.m, -math.inf), np.full(self.m, math.inf),
               np.full((self.m, self.m), math.nan), np.full((self.m, self.m), math.nan)]
        for side, sign in enumerate((1, -1)):
            for j in range(self.m):
                if self.bounded[side][j]:
                    best = min(self.points, key=lambda y: (sign * y[j], _dot(y, y)))
                    out[side][j] = float(best[j])
                    out[side + 2][j] = [float(v) for v in best]
        return tuple(out)

    def least_norm(self) -> np.ndarray:
        """The member of least norm, rounded to the nearest float."""
        return np.array([float(v) for v in min(self.points, key=lambda y: _dot(y, y))])
