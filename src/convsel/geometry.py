"""Nonempty closed convex bodies in R^m and Euclidean projection onto them.

Three variants cover everything the selection pipelines need: intervals
(m = 1, endpoints may be infinite), balls, and H-polytopes
``{y : A y <= b}``.  Intervals and balls project in closed form.

A polytope in small output dimension m with few rows is handled by one
exact active-set kernel: the nearest point of a polytope is the
projection onto the affine span ``{A_S y = b_S}`` of some set S of at
most m independent rows, so enumerating those sets and keeping the
nearest candidate that satisfies ``A y <= b`` gives the projection, the
least-norm point (which doubles as the feasibility witness checked at
construction) and, from the same candidates for the origin, the
coordinate extremes together with points attaining them.  Whether a
coordinate is bounded is decided from the rows alone (``-+e_j`` must lie
in the cone they span).

Polytopes with too many candidate sets fall back to Dykstra's
alternating projections and to linear programming; so do the rare bodies
the kernel cannot certify (no candidate member was found), which is also
how an empty polytope is confirmed.  scipy is imported only when that
fallback first runs, so ``import convsel`` does not load it.  Either
way, every constructed body has been checked nonempty, so downstream
code can treat it as a value of a set-valued map with nonempty closed
convex values.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleBodyError,
    ProjectionError,
    UnboundedBodyError,
)

#: Dykstra iteration budget and movement tolerance.
MAX_PROJECTION_SWEEPS = 10_000
PROJECTION_TOL = 1e-10

#: Default membership slack for ``contains``.
CONTAINS_TOL = 1e-9

#: The exact kernel handles a polytope when it has fewer candidate active
#: sets (row subsets of size <= m) than this; its work per query point
#: grows with the count, Dykstra's and the LP's do not.
_MAX_ACTIVE_SETS = 256

#: Row subsets whose Gram determinant, on unit rows, is below this are
#: treated as dependent and skipped: a subset that only just spans its
#: rows would amplify rounding in its candidate by the inverse.
_DEPENDENT_GRAM = 1e-12

#: Slack, on unit rows, for deciding that ``+-e_j`` lies in the cone of
#: the rows (the j-th coordinate is bounded on that side).
_CONE_TOL = 1e-9

#: Chunk size, in floats, of the candidate arrays built per projection call.
_CANDIDATE_FLOATS = 1 << 20


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use.

    Only the fallback path solves linear programs, so importing this
    module does not pay for ``scipy.optimize``.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@functools.lru_cache(maxsize=None)
def _row_subsets(p: int, k: int) -> np.ndarray:
    """All k-element subsets of range(p), one per row, in lexicographic
    order; read-only, since every caller shares the cached array."""
    idx = np.array(list(itertools.combinations(range(p), k)), dtype=np.intp)
    idx = idx.reshape(-1, k)
    idx.setflags(write=False)
    return idx


def _active_set_count(p: int, m: int) -> int:
    return sum(math.comb(p, k) for k in range(min(p, m) + 1))


def _active_set_operators(A: np.ndarray) -> np.ndarray:
    """Stacked operators ``H`` of shape (K, p, m), one per independent row
    subset S of size <= m (the empty set first).

    ``H_S`` holds ``(A_S A_S^T)^-1 A_S`` on the rows of S and zeros on the
    others, so the projection of z onto ``{A_S y = b_S}`` is
    ``z - H_S^T (A z - b)`` and ``A^T H_S`` is the orthogonal projector
    onto the span of the rows of S.
    """
    p, m = A.shape
    norms2 = np.einsum("ij,ij->i", A, A)
    blocks = [np.zeros((1, p, m))]
    for k in range(1, min(p, m) + 1):
        idx = _row_subsets(p, k)
        AS = A[idx]
        G = AS @ AS.transpose(0, 2, 1)
        unit_det = np.linalg.det(G) / np.prod(norms2[idx], axis=1)
        keep = unit_det > _DEPENDENT_GRAM
        if not keep.any():
            continue
        idx = idx[keep]
        H = np.zeros((idx.shape[0], p, m))
        H[np.arange(idx.shape[0])[:, None], idx] = np.linalg.solve(G[keep], AS[keep])
        blocks.append(H)
    return np.concatenate(blocks)


def kernel_operators(A) -> np.ndarray | None:
    """The exact kernel's operators for the normals ``A``, with zero rows
    dropped as :class:`HPolytope` drops them, or None when a polytope with
    these normals takes the fallback path.

    The operators depend on ``A`` alone, so polytopes that share their
    normals can share one read-only array, passed as ``_sets``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    A = A[np.linalg.norm(A, axis=1) != 0.0]
    if _active_set_count(*A.shape) >= _MAX_ACTIVE_SETS:
        return None
    sets = _active_set_operators(A)
    sets.setflags(write=False)
    return sets


class ConvexBody(abc.ABC):
    """A nonempty closed convex subset of R^m."""

    dim: int

    @abc.abstractmethod
    def project_many(self, Z: np.ndarray) -> np.ndarray:
        """Euclidean projection of each row of ``Z`` (shape (N, m))."""

    @abc.abstractmethod
    def contains_many(self, Y: np.ndarray, tol: float = CONTAINS_TOL) -> np.ndarray:
        """Boolean membership mask for each row of ``Y``."""

    @abc.abstractmethod
    def translate(self, c) -> "ConvexBody":
        """The body shifted by ``c`` (feasibility is preserved, no re-check)."""

    @abc.abstractmethod
    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise (inf, sup) over the body; +-inf where unbounded."""

    @abc.abstractmethod
    def boundary_margin(self, y) -> float:
        """Signed distance from ``y`` to the boundary: > 0 strictly inside,
        < 0 outside, 0 on the boundary (and everywhere on flat bodies)."""

    def _check_dim(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected point of shape ({self.dim},), got {y.shape}"
            )
        return y

    def contains(self, y, tol: float = CONTAINS_TOL) -> bool:
        y = self._check_dim(y)
        return bool(self.contains_many(y.reshape(1, -1), tol)[0])

    def project(self, z) -> np.ndarray:
        z = self._check_dim(z)
        return self.project_many(z.reshape(1, -1))[0]

    def least_norm(self) -> np.ndarray:
        """The unique point of minimal Euclidean norm."""
        return self.project(np.zeros(self.dim))

    def distance(self, z) -> float:
        z = self._check_dim(z)
        return float(np.linalg.norm(self.project(z) - z))

    def sample_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.coord_bounds()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise UnboundedBodyError(
                "sampling an unbounded body needs a declared bounding box"
            )
        return lo, hi


class Interval(ConvexBody):
    """A closed interval of the extended line (m = 1)."""

    def __init__(self, lo: float, hi: float):
        self.lo = float(lo)
        self.hi = float(hi)
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise InfeasibleBodyError("interval endpoint is NaN")
        if self.lo > self.hi:
            raise InfeasibleBodyError(f"interval has lo={self.lo} > hi={self.hi}")
        if self.lo == self.hi and math.isinf(self.lo):
            raise InfeasibleBodyError(f"interval [{self.lo}, {self.hi}] has no real point")
        self.dim = 1

    def project_many(self, Z: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(Z, dtype=float), self.lo, self.hi)

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        Y = np.asarray(Y, dtype=float).reshape(-1, 1)
        return ((Y[:, 0] >= self.lo - tol) & (Y[:, 0] <= self.hi + tol))

    def translate(self, c) -> "Interval":
        c = float(np.asarray(c).reshape(-1)[0])
        return Interval(self.lo + c, self.hi + c)

    def coord_bounds(self):
        return np.array([self.lo]), np.array([self.hi])

    def boundary_margin(self, y) -> float:
        y = float(self._check_dim(y)[0])
        return min(y - self.lo, self.hi - y)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


class Ball(ConvexBody):
    def __init__(self, center, radius: float):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.radius = float(radius)
        if self.radius < 0:
            raise InfeasibleBodyError(f"negative radius {self.radius}")
        if not np.all(np.isfinite(self.center)) or not math.isfinite(self.radius):
            raise InfeasibleBodyError("ball parameters must be finite")
        self.dim = self.center.shape[0]

    def project_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        D = Z - self.center
        norms = np.linalg.norm(D, axis=1)
        scale = np.ones_like(norms)
        out = norms > self.radius
        scale[out] = self.radius / norms[out]
        return self.center + D * scale[:, None]

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return np.linalg.norm(Y - self.center, axis=1) <= self.radius + tol

    def translate(self, c) -> "Ball":
        return Ball(self.center + np.asarray(c, dtype=float), self.radius)

    def coord_bounds(self):
        return self.center - self.radius, self.center + self.radius

    def boundary_margin(self, y) -> float:
        y = self._check_dim(y)
        return self.radius - float(np.linalg.norm(y - self.center))

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class HPolytope(ConvexBody):
    """Intersection of halfspaces ``{y : A y <= b}``, checked nonempty.

    Zero rows of ``A`` are resolved at construction: a vacuous constraint
    (``0 <= b_i`` with ``b_i >= 0``) is dropped, an impossible one raises.

    With fewer than ``_MAX_ACTIVE_SETS`` candidate active sets the exact
    kernel of this module projects batches of points, and its candidates
    for the origin give the least-norm point (found at construction as
    the feasibility witness) and the coordinate extremes, both cached.
    Otherwise projection runs Dykstra's cyclic scheme batched over query
    points, raising :class:`ProjectionError` if the sweep budget runs out
    while an iterate still violates a constraint, and feasibility and the
    extremes come from linear programs.  ``bounding_box`` is optional and
    only consulted by sampling oracles when a coordinate is unbounded.
    """

    def __init__(self, A, b, bounding_box=None, _validated: bool = False, _sets=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        norms = np.linalg.norm(A, axis=1)
        zero = norms == 0.0
        if np.any(zero):
            if np.any(b[zero] < 0):
                raise InfeasibleBodyError("constraint 0 <= b with b < 0")
            A, b, norms = A[~zero], b[~zero], norms[~zero]
        self.A = A
        self.b = b
        self.dim = A.shape[1]
        self.bounding_box = bounding_box
        self._norms = norms
        self._norms2 = norms**2
        # the kernel's operators depend on A alone, so translates share them
        self._sets = kernel_operators(A) if _sets is None else _sets
        self._members = None
        self._extremes = None
        if not _validated:
            self._check_feasible()

    def _check_feasible(self):
        if self._origin_members() is not None:
            return
        res = linprog(
            c=np.zeros(self.dim),
            A_ub=self.A,
            b_ub=self.b,
            bounds=[(None, None)] * self.dim,
            method="highs",
        )
        if res.status == 2:
            raise InfeasibleBodyError("halfspace system has no solution")
        if not res.success:
            raise InfeasibleBodyError(f"feasibility check failed: {res.message}")

    # -- exact kernel --------------------------------------------------------

    def _candidates(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every active-set candidate for each row of ``Z``, shape (K, N, m),
        and whether it lies in the body, shape (K, N)."""
        Y = Z - (Z @ self.A.T - self.b) @ self._sets
        K, N, m = Y.shape
        return Y, self.contains_many(Y.reshape(-1, m)).reshape(K, N)

    def _origin_members(self) -> np.ndarray | None:
        """The candidates for the origin that lie in the body, in candidate
        order; None when the body is on the fallback path."""
        if self._members is None and self._sets is not None:
            Y, inside = self._candidates(np.zeros((1, self.dim)))
            if inside.any():
                self._members = Y[inside[:, 0], 0]
            else:
                # no member found means empty or too ill-conditioned for the
                # kernel to tell: the fallback decides from here on
                self._sets = None
        return self._members

    def _kernel_project(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest in-body candidate for each row of ``Z``, and which rows
        have one."""
        K, p = self._sets.shape[:2]
        step = max(1, _CANDIDATE_FLOATS // (K * (p + self.dim)))
        Y = np.empty_like(Z)
        found = np.empty(Z.shape[0], dtype=bool)
        for s in range(0, Z.shape[0], step):
            chunk = Z[s : s + step]
            cand, inside = self._candidates(chunk)
            d2 = np.where(inside, np.sum((cand - chunk) ** 2, axis=2), np.inf)
            best = np.argmin(d2, axis=0)
            rows = np.arange(chunk.shape[0])
            Y[s : s + step] = cand[best, rows]
            found[s : s + step] = inside[best, rows]
        return Y, found

    def _kernel_extremes(self, members: np.ndarray):
        """``coord_extremes`` from the in-body candidates for the origin."""
        m = self.dim
        H = self._sets
        # e_j = A_S^T lam has lam = H_S e_j when e_j lies in the span of S;
        # the coordinate is bounded above (below) when lam >= 0 (<= 0)
        spans = np.linalg.norm(np.eye(m) - self.A.T @ H, axis=1) <= _CONE_TOL
        lam = H * self._norms[:, None]
        bounded = (
            np.any(spans & np.all(lam <= _CONE_TOL, axis=1), axis=0),
            np.any(spans & np.all(lam >= -_CONE_TOL, axis=1), axis=0),
        )
        # the least-norm point of each optimal face is one of the members
        norms2 = np.sum(members**2, axis=1)
        bounds = (np.full(m, -math.inf), np.full(m, math.inf))
        args = (np.full((m, m), math.nan), np.full((m, m), math.nan))
        for side, sign in enumerate((1.0, -1.0)):
            for j in np.nonzero(bounded[side])[0]:
                t = sign * members[:, j]
                best = float(np.min(t))
                ties = t <= best + CONTAINS_TOL * max(1.0, abs(best))
                i = int(np.argmin(np.where(ties, norms2, np.inf)))
                bounds[side][j] = members[i, j]
                args[side][j] = members[i]
        return bounds[0], bounds[1], args[0], args[1]

    # -- fallback ------------------------------------------------------------

    def _dykstra(self, Z: np.ndarray) -> np.ndarray:
        if self.A.shape[0] == 0:
            return Z.copy()
        if np.all(self.A @ Z.T - self.b[:, None] <= 0):
            return Z.copy()
        Y = Z.copy()
        corr = np.zeros((self.A.shape[0],) + Y.shape)
        for _ in range(MAX_PROJECTION_SWEEPS):
            start = Y.copy()
            corr_start = corr.copy()
            for i in range(self.A.shape[0]):
                W = Y + corr[i]
                t = (W @ self.A[i] - self.b[i]) / self._norms2[i]
                np.maximum(t, 0.0, out=t)
                Y = W - t[:, None] * self.A[i]
                corr[i] = W - Y
            # the iterate alone can revisit a point mid-convergence while
            # the corrections still churn; both must settle before stopping
            move = max(
                float(np.max(np.abs(Y - start))),
                float(np.max(np.abs(corr - corr_start))),
            )
            if move < PROJECTION_TOL:
                break
        worst = float(np.max((self.A @ Y.T - self.b[:, None]) / self._norms[:, None]))
        if worst > 1e-7:
            raise ProjectionError(
                f"projection did not converge (residual {worst:.3e})"
            )
        return Y

    def _lp_extremes(self):
        m = self.dim
        bounds = (np.empty(m), np.empty(m))
        args = (np.full((m, m), math.nan), np.full((m, m), math.nan))
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            for side, sign in enumerate((1.0, -1.0)):
                lp = dict(
                    c=sign * e,
                    A_ub=self.A,
                    b_ub=self.b,
                    bounds=[(None, None)] * m,
                    method="highs",
                )
                res = linprog(**lp)
                if res.status == 2:
                    # the body is nonempty: HiGHS's presolve reports some
                    # unbounded LPs (a slab in R^3) as infeasible
                    res = linprog(**lp, options={"presolve": False})
                if res.status == 3:
                    bounds[side][j] = -sign * math.inf
                elif res.success:
                    x = res.x
                    if self.contains(x):
                        bounds[side][j] = sign * res.fun
                    else:
                        # HiGHS stops within its feasibility tolerance, which
                        # can leave a thin body; the projection is a member
                        x = self._dykstra(x[None])[0]
                        bounds[side][j] = x[j]
                    args[side][j] = x
                else:
                    raise ProjectionError(f"bounds LP failed: {res.message}")
        return bounds[0], bounds[1], args[0], args[1]

    # -- public interface ----------------------------------------------------

    def project_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if self._sets is None:
            return self._dykstra(Z)
        Y, found = self._kernel_project(Z)
        if not found.all():
            Y[~found] = self._dykstra(Z[~found])
        return Y

    def least_norm(self) -> np.ndarray:
        members = self._origin_members()
        if members is None:
            return super().least_norm()
        return members[np.argmin(np.sum(members**2, axis=1))].copy()

    def coord_extremes(self):
        """``(lo, hi, arg_lo, arg_hi)``: the coordinate bounds, +-inf where
        unbounded, and in row j of the (m, m) arrays ``arg_lo``/``arg_hi`` a
        member attaining ``lo[j]``/``hi[j]`` (NaN where that bound is
        infinite).  Computed once per body; the arrays are read-only."""
        if self._extremes is None:
            members = self._origin_members()
            if members is None:
                extremes = self._lp_extremes()
            else:
                extremes = self._kernel_extremes(members)
            for a in extremes:
                a.setflags(write=False)
            self._extremes = extremes
        return self._extremes

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if self.A.shape[0] == 0:
            return np.ones(Y.shape[0], dtype=bool)
        slack = self.b[:, None] - self.A @ Y.T
        return np.all(slack >= -tol * np.maximum(1.0, self._norms)[:, None], axis=0)

    def translate(self, c) -> "HPolytope":
        c = np.asarray(c, dtype=float)
        box = self.bounding_box
        if box is not None:
            box = (box[0] + c, box[1] + c)
        return HPolytope(
            self.A, self.b + self.A @ c, bounding_box=box, _validated=True,
            _sets=self._sets,
        )

    def coord_bounds(self):
        lo, hi, _, _ = self.coord_extremes()
        return lo.copy(), hi.copy()

    def boundary_margin(self, y) -> float:
        y = self._check_dim(y)
        if self.A.shape[0] == 0:
            return math.inf
        slack = (self.b - self.A @ y) / self._norms
        worst = float(np.min(slack))
        if worst >= 0:
            # inside: nearest facet hyperplane realizes the boundary distance
            return worst
        return -self.distance(y)

    def sample_bounds(self):
        lo, hi = self.coord_bounds()
        if np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)):
            return lo, hi
        if self.bounding_box is not None:
            blo, bhi = self.bounding_box
            return np.asarray(blo, dtype=float), np.asarray(bhi, dtype=float)
        raise UnboundedBodyError(
            "sampling an unbounded polytope needs a declared bounding box"
        )

    @staticmethod
    def from_box(lo, hi) -> "HPolytope":
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        eye = np.eye(lo.shape[0])
        return HPolytope(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    @staticmethod
    def intersect(p: "HPolytope", q: "HPolytope") -> "HPolytope":
        if p.dim != q.dim:
            raise DimensionMismatchError("cannot intersect bodies of different dim")
        return HPolytope(np.vstack([p.A, q.A]), np.concatenate([p.b, q.b]))

    def __repr__(self):
        return f"HPolytope({self.A.shape[0]} halfspaces, dim={self.dim})"


# ---------------------------------------------------------------------------
# body batches


def row_norms(V) -> np.ndarray:
    """The Euclidean norm of each row of ``V`` (shape (N, m)), row i bit
    for bit ``np.linalg.norm(V[i])``.

    The norm of one vector takes a BLAS dot, which rounds differently from
    the ``axis=1`` sum of squares; a stack of one-row products takes that
    dot row by row.
    """
    V = np.asarray(V, dtype=float)
    return np.sqrt(np.matmul(V[:, None, :], V[:, :, None])[:, 0, 0])


class BodyBatch(abc.ABC):
    """N bodies in R^m, one per row.  Row i of every result equals, bit for
    bit, what the i-th body's own method gives."""

    dim: int

    @abc.abstractmethod
    def __len__(self) -> int:
        """The number of bodies."""

    @abc.abstractmethod
    def body(self, i: int) -> ConvexBody:
        """Body i, as the map's rule builds it at that point."""

    @abc.abstractmethod
    def translate(self, C) -> "BodyBatch":
        """Body i shifted by row i of ``C`` (shape (N, m))."""

    @abc.abstractmethod
    def project(self, Z) -> np.ndarray:
        """Row i of ``Z`` (shape (N, m)) projected onto body i."""

    @abc.abstractmethod
    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape (N, m): each body's coordinate bounds."""

    def least_norm(self) -> np.ndarray:
        """Each body's point of least norm, shape (N, m)."""
        return self.project(np.zeros((len(self), self.dim)))

    def distance(self, Y) -> np.ndarray:
        """Distance from row i of ``Y`` to body i, shape (N,)."""
        Y = np.asarray(Y, dtype=float)
        return row_norms(self.project(Y) - Y)


class IntervalBatch(BodyBatch):
    """Intervals ``[lo_i, hi_i]``, checked as :class:`Interval` checks them."""

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        # NaNs compare False, so ``lo <= hi`` rules them out too
        ok = (lo <= hi) & ((lo != hi) | np.isfinite(lo))
        if not ok.all():
            i = int(np.argmin(ok))
            Interval(lo[i], hi[i])  # raises Interval's error at the first bad row
        self.lo, self.hi, self.dim = lo, hi, 1

    def __len__(self) -> int:
        return self.lo.shape[0]

    def body(self, i: int) -> Interval:
        return Interval(self.lo[i], self.hi[i])

    def translate(self, C) -> "IntervalBatch":
        c = np.asarray(C, dtype=float)[:, 0]
        return IntervalBatch(self.lo + c, self.hi + c)

    def project(self, Z) -> np.ndarray:
        # np.clip between scalar bounds keeps the point where it ties with a
        # bound, between array bounds it takes the bound: the sign of a zero
        # tells them apart, so the ties are kept here as the body keeps them
        Z = np.asarray(Z, dtype=float)
        lo, hi = self.lo[:, None], self.hi[:, None]
        Y = np.where(lo > Z, lo, Z)
        return np.where(hi < Y, hi, Y)

    def coord_bounds(self):
        return self.lo[:, None].copy(), self.hi[:, None].copy()


class BallBatch(BodyBatch):
    """Balls with centres the rows of ``centers``, checked as :class:`Ball`
    checks them."""

    def __init__(self, centers, radii):
        C = np.asarray(centers, dtype=float)
        r = np.asarray(radii, dtype=float).reshape(-1)
        ok = (r >= 0) & np.isfinite(r) & np.isfinite(C).all(axis=1)
        if not ok.all():
            i = int(np.argmin(ok))
            Ball(C[i], r[i])  # raises Ball's error at the first bad row
        self.centers, self.radii, self.dim = C, r, C.shape[1]

    def __len__(self) -> int:
        return self.radii.shape[0]

    def body(self, i: int) -> Ball:
        return Ball(self.centers[i], self.radii[i])

    def translate(self, C) -> "BallBatch":
        return BallBatch(self.centers + np.asarray(C, dtype=float), self.radii)

    def project(self, Z) -> np.ndarray:
        D = np.asarray(Z, dtype=float) - self.centers
        norms = np.linalg.norm(D, axis=1)
        scale = np.ones_like(norms)
        out = norms > self.radii
        scale[out] = self.radii[out] / norms[out]
        return self.centers + D * scale[:, None]

    def coord_bounds(self):
        r = self.radii[:, None]
        return self.centers - r, self.centers + r


class PolytopeBatch(BodyBatch):
    """Polytopes ``{y : A y <= b_i}`` that share their normals ``A`` and
    the exact kernel's operators ``sets`` (from :func:`kernel_operators`),
    with ``b_i`` the rows of ``B``.  ``bounding_box`` is None or a pair
    ``(lo, hi)`` that broadcasts to (N, m): row i is body i's box, which
    :meth:`translate` shifts with the body as :meth:`HPolytope.translate`
    does.

    Zero rows of ``A`` are resolved and, unless ``_validated``, every row
    is checked nonempty, as :class:`HPolytope` does.  The kernel's products
    are stacked over the rows, so that each row's are taken one at a time
    by the same BLAS calls as its body's and round alike.  A row where the
    kernel finds no member is handed to its own :class:`HPolytope`, which
    confirms it by LP (or raises), and so is every later query of that row
    that the kernel cannot answer.
    """

    def __init__(self, A, sets, B, bounding_box=None, _validated: bool = False):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float).reshape(-1, A.shape[0])
        if bounding_box is not None:
            bounding_box = tuple(np.broadcast_to(v, (B.shape[0], A.shape[1]))
                                 for v in bounding_box)
        zero = np.linalg.norm(A, axis=1) == 0.0
        if zero.any():
            bad = np.any(B[:, zero] < 0, axis=1)
            if bad.any():
                HPolytope(A, B[np.argmax(bad)])  # raises at the first bad row
            A, B = A[~zero], B[:, ~zero]
        self.A, self.B, self.dim = A, B, A.shape[1]
        self.bounding_box = bounding_box
        self._sets = sets
        self._min_slack = -CONTAINS_TOL * np.maximum(1.0, np.linalg.norm(A, axis=1))[:, None]
        self._validated = _validated
        self._origin = None
        if not _validated:
            _, lost = self._origin_pass()
            for i in np.flatnonzero(lost):
                self.body(i)  # the LP confirms the row or raises

    def __len__(self) -> int:
        return self.B.shape[0]

    def body(self, i: int) -> HPolytope:
        """Row i as the :class:`HPolytope` the map builds, in the state its
        queries so far have left it."""
        box = self.bounding_box
        if box is not None:
            box = (box[0][i], box[1][i])
        body = HPolytope(self.A, self.B[i], bounding_box=box, _validated=self._validated,
                         _sets=self._sets)
        if self._origin is not None:
            body._origin_members()
        return body

    def _blocks(self):
        K, p = self._sets.shape[:2]
        step = max(1, _CANDIDATE_FLOATS // (K * (p + self.dim)))
        for s in range(0, len(self), step):
            yield slice(s, s + step)

    def _nearest(self, Z: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """For row i of ``Z``, body i's nearest in-body candidate, and
        whether it has one."""
        Zr = Z[:, None, :]
        W = Zr @ self.A.T - self.B[rows, None, :]
        Y = (Zr[:, None] - W[:, None] @ self._sets)[:, :, 0, :]
        slack = self.B[rows, :, None] - self.A @ Y.transpose(0, 2, 1)
        inside = np.all(slack >= self._min_slack, axis=1)
        d2 = np.where(inside, np.sum((Y - Zr) ** 2, axis=2), np.inf)
        best = np.argmin(d2, axis=1)
        n = np.arange(Z.shape[0])
        return Y[n, best], inside[n, best]

    def _origin_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's least-norm member among the candidates for the origin,
        and the rows with none, computed once."""
        if self._origin is None:
            least = np.empty((len(self), self.dim))
            lost = np.empty(len(self), dtype=bool)
            for rows in self._blocks():
                Y, found = self._nearest(np.zeros_like(least[rows]), rows)
                least[rows], lost[rows] = Y, ~found
            self._origin = (least, lost)
        return self._origin

    def least_norm(self) -> np.ndarray:
        least, lost = self._origin_pass()
        out = least.copy()
        for i in np.flatnonzero(lost):
            out[i] = self.body(i).least_norm()
        return out

    def project(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        out = np.empty_like(Z)
        missed = np.empty(len(self), dtype=bool)
        for rows in self._blocks():
            out[rows], found = self._nearest(Z[rows], rows)
            missed[rows] = ~found
        if self._origin is not None:
            missed |= self._origin[1]  # those bodies project by the fallback
        for i in np.flatnonzero(missed):
            out[i] = self.body(i).project(Z[i])
        return out

    def translate(self, C) -> "PolytopeBatch":
        C = np.asarray(C, dtype=float)
        B = self.B + np.matmul(self.A, C[:, :, None])[:, :, 0]
        box = self.bounding_box
        if box is not None:
            box = (box[0] + C, box[1] + C)
        return PolytopeBatch(self.A, self._sets, B, box, _validated=True)

    def coord_bounds(self):
        return _bounds_by_row(map(self.body, range(len(self))), self.dim)


class BodyRows(BodyBatch):
    """Bodies held one by one, for bodies with no batch of their own
    (polytopes whose normals vary, or past the kernel's limit): every
    query runs body by body."""

    def __init__(self, bodies, dim: int):
        self.bodies, self.dim = list(bodies), dim

    def __len__(self) -> int:
        return len(self.bodies)

    def body(self, i: int) -> ConvexBody:
        return self.bodies[i]

    def _rows(self, values) -> np.ndarray:
        return np.array(list(values), dtype=float).reshape(len(self), self.dim)

    def translate(self, C) -> "BodyRows":
        return BodyRows([b.translate(c) for b, c in zip(self.bodies, C)], self.dim)

    def project(self, Z) -> np.ndarray:
        return self._rows(b.project(z) for b, z in zip(self.bodies, Z))

    def least_norm(self) -> np.ndarray:
        return self._rows(b.least_norm() for b in self.bodies)

    def coord_bounds(self):
        return _bounds_by_row(self.bodies, self.dim)


def _bounds_by_row(bodies, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinate bounds of each body, stacked as (N, dim) arrays."""
    bounds = [b.coord_bounds() for b in bodies]
    lo = np.array([lo for lo, _ in bounds]).reshape(-1, dim)
    hi = np.array([hi for _, hi in bounds]).reshape(-1, dim)
    return lo, hi


class StackedBatch(BodyBatch):
    """N rows split among batches: ``parts`` holds ``(rows, batch)`` pairs,
    row ``rows[j]`` being body j of ``batch``, with ``rows`` ascending;
    every row is in one part."""

    def __init__(self, count: int, dim: int, parts):
        self.count, self.dim, self.parts = count, dim, list(parts)

    def __len__(self) -> int:
        return self.count

    def body(self, i: int) -> ConvexBody:
        for rows, batch in self.parts:
            j = int(np.searchsorted(rows, i))
            if j < rows.shape[0] and rows[j] == i:
                return batch.body(j)
        raise IndexError(f"no part holds row {i}")

    def _gather(self, values) -> np.ndarray:
        out = np.empty((self.count, self.dim))
        for rows, batch in self.parts:
            out[rows] = values(rows, batch)
        return out

    def translate(self, C) -> "StackedBatch":
        C = np.asarray(C, dtype=float)
        parts = [(rows, batch.translate(C[rows])) for rows, batch in self.parts]
        return StackedBatch(self.count, self.dim, parts)

    def project(self, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        return self._gather(lambda rows, batch: batch.project(Z[rows]))

    def least_norm(self) -> np.ndarray:
        return self._gather(lambda rows, batch: batch.least_norm())

    def coord_bounds(self):
        lo = np.empty((self.count, self.dim))
        hi = np.empty_like(lo)
        for rows, batch in self.parts:
            lo[rows], hi[rows] = batch.coord_bounds()
        return lo, hi


def sample(body: ConvexBody, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` feasible points: rejection inside the body's bounding box,
    topped up with projections of leftover proposals when the body is thin
    relative to its box."""
    lo, hi = body.sample_bounds()
    span = np.maximum(hi - lo, 0.0)
    batch = max(4 * k, 64)
    hits = np.empty((0, body.dim))
    for _ in range(40):
        Z = lo + span * rng.random((batch, body.dim))
        inside = body.contains_many(Z)
        hits = np.vstack([hits, Z[inside]])
        if hits.shape[0] >= k:
            return hits[:k]
    Z = lo + span * rng.random((k - hits.shape[0], body.dim))
    return np.vstack([hits, body.project_many(Z)])[:k]
