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


def _solve(M: list, columns: list) -> list | None:
    """The solution of ``M x = v`` for each ``v`` in ``columns``, by one
    Gauss-Jordan elimination, or None when the square ``M`` is singular."""
    n = len(M)
    rows = [M[i][:] + [v[i] for v in columns] for i in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [[rows[i][n + k] / rows[i][i] for i in range(n)] for k in range(len(columns))]


def _dot(u, v) -> Fraction:
    return sum((x * y for x, y in zip(u, v)), Fraction(0))


class ExactPolytope:
    """``{y : A y <= b}`` for p <= 7 rows in R^m with m <= 3, solved exactly."""

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        assert A.shape[0] <= 7 and A.shape[1] <= 3
        self.m = A.shape[1]
        self.A, self.b = _rational(A), [Fraction(float(v)) for v in np.ravel(b)]
        self.gram = [[_dot(u, v) for v in self.A] for u in self.A]
        self.points = []  # the members among the flats' points nearest the origin
        self.bounded = np.zeros((2, self.m), dtype=bool)  # below, above
        self.nearly_bounded = np.zeros((2, self.m), dtype=bool)
        for k in range(min(len(self.A), self.m) + 1):
            for S in itertools.combinations(range(len(self.A)), k):
                self._take(S)

    def _take(self, S) -> None:
        AS = [self.A[i] for i in S]
        gram = [[self.gram[i][k] for k in S] for i in S]
        columns = [[a[j] for a in AS] for j in range(self.m)]
        # mu for b_S and lam for each column of A_S, from one elimination
        solved = _solve(gram, [[self.b[i] for i in S], *columns]) if S else [[]] * (self.m + 1)
        if solved is None:
            return  # dependent rows
        mu, lams = solved[0], solved[1:]
        # y = A_S^T (A_S A_S^T)^-1 b_S: on the flat, and normal to it
        y = [_dot(mu, column) for column in columns]
        if all(_dot(a, y) <= bi for a, bi in zip(self.A, self.b)):
            self.points.append(y)
        for j, (column, lam) in enumerate(zip(columns, lams)):
            # lam combines the part of e_j in the span of S, off2 is the rest's
            off2 = 1 - _dot(lam, column)
            for side, sign in enumerate((-1, 1)):
                if off2 == 0 and all(sign * v >= 0 for v in lam):
                    self.bounded[side, j] = True
                if off2 <= _SPAN_TOL**2 and all(
                        sign * v >= 0 or v * v * self.gram[i][i] <= _SEIDEL_SLACK**2
                        for v, i in zip(lam, S)):
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
