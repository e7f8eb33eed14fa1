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

A map's bodies come as one :class:`BodyBatch`, whose queries answer every
row at once; :class:`PolytopeBatch` holds the one implementation of the
kernel and the fallback, and an :class:`HPolytope` is a batch of one row.
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


def _kernel_extremes(A, H, norms, Y, inside) -> tuple:
    """``coord_extremes`` of N polytopes ``{y : A y <= b_i}`` with the
    kernel's operators ``H`` and row norms ``norms``, from each one's
    candidates for the origin, ``Y`` of shape (N, K, m), and which of them
    lie in it, ``inside`` of shape (N, K); a row with no member gets
    meaningless values.  Shapes (N, m), (N, m), (N, m, m), (N, m, m)."""
    m = A.shape[1]
    # e_j = A_S^T lam has lam = H_S e_j when e_j lies in the span of S;
    # the coordinate is bounded above (below) when lam >= 0 (<= 0)
    spans = np.linalg.norm(np.eye(m) - A.T @ H, axis=1) <= _CONE_TOL
    lam = H * norms[:, None]
    bounded = (
        np.any(spans & np.all(lam <= _CONE_TOL, axis=1), axis=0),
        np.any(spans & np.all(lam >= -_CONE_TOL, axis=1), axis=0),
    )
    # the least-norm point of each optimal face is one of the members
    N = Y.shape[0]
    norms2 = np.sum(Y**2, axis=2)
    rows = np.arange(N)
    bounds = (np.full((N, m), -math.inf), np.full((N, m), math.inf))
    args = (np.full((N, m, m), math.nan), np.full((N, m, m), math.nan))
    for side, sign in enumerate((1.0, -1.0)):
        for j in np.flatnonzero(bounded[side]):
            t = np.where(inside, sign * Y[:, :, j], math.inf)
            best = np.min(t, axis=1, keepdims=True)
            ties = inside & (t <= best + CONTAINS_TOL * np.maximum(1.0, np.abs(best)))
            i = np.argmin(np.where(ties, norms2, math.inf), axis=1)
            bounds[side][:, j] = Y[rows, i, j]
            args[side][:, j] = Y[rows, i]
    return bounds[0], bounds[1], args[0], args[1]


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
    def coord_extremes(self) -> tuple:
        """``(lo, hi, arg_lo, arg_hi)``: the coordinate bounds, +-inf where
        unbounded, and in row j of the (m, m) arrays ``arg_lo``/``arg_hi`` a
        member attaining ``lo[j]``/``hi[j]`` (NaN where that bound is
        infinite)."""

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

    def coord_extremes(self):
        return tuple(a[0] for a in IntervalBatch([self.lo], [self.hi]).coord_extremes())

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

    def coord_extremes(self):
        return tuple(a[0] for a in BallBatch(self.center[None], [self.radius]).coord_extremes())

    def boundary_margin(self, y) -> float:
        y = self._check_dim(y)
        return self.radius - float(np.linalg.norm(y - self.center))

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class HPolytope(ConvexBody):
    """Intersection of halfspaces ``{y : A y <= b}``, checked nonempty.

    A polytope is a :class:`PolytopeBatch` of one row, which projects
    batches of points and finds the least-norm point and the coordinate
    extremes: by the exact kernel of this module when ``A`` has fewer than
    ``_MAX_ACTIVE_SETS`` candidate active sets, and otherwise by Dykstra's
    cyclic scheme, batched over query points and raising
    :class:`ProjectionError` if the sweep budget runs out while an iterate
    still violates a constraint, with feasibility and the extremes from
    linear programs.  Zero rows of ``A`` are resolved at construction: a
    vacuous constraint (``0 <= b_i`` with ``b_i >= 0``) is dropped, an
    impossible one raises.  ``bounding_box`` is optional and only consulted
    by sampling oracles when a coordinate is unbounded.
    """

    def __init__(self, A, b, bounding_box=None, _validated: bool = False, _sets=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"A has {A.shape[0]} rows but b has {b.shape[0]} entries"
            )
        # the kernel's operators depend on A alone, so translates share them
        sets = kernel_operators(A) if _sets is None else _sets
        self._row = PolytopeBatch(A, sets, b, _validated=_validated)
        self.A, self.b, self.dim = self._row.A, self._row.B[0], self._row.dim
        self.bounding_box = bounding_box
        self._norms = self._row._norms
        self._extremes = None

    @property
    def _sets(self):
        """The kernel's operators, or None on the fallback path."""
        row = self._row
        if row._sets is None or (row._origin is not None and row._lost()[0]):
            return None
        return row._sets

    def project_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return self._row.project_rows([0], Z[None])[0]

    def least_norm(self) -> np.ndarray:
        return self._row.least_norm()[0]

    def coord_extremes(self):
        """:meth:`ConvexBody.coord_extremes`, computed once per body; the
        arrays are read-only."""
        if self._extremes is None:
            self._extremes = tuple(a[0] for a in self._row.coord_extremes())
            for a in self._extremes:
                a.setflags(write=False)
        return self._extremes

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        return self._row.contains([0], np.atleast_2d(np.asarray(Y, dtype=float))[None], tol)[0]

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
    bit, what the i-th body's own method gives.

    A query of several points per body takes ``rows``, body indices, and
    blocks of shape (R, k, m), block n going to body ``rows[n]``.  The
    queries here run body by body through :meth:`body`; a batch kind with
    arrays of its own answers them on its arrays.
    """

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

    def project_rows(self, rows, Z) -> np.ndarray:
        """Block ``Z[n]`` projected onto body ``rows[n]``, as that body's
        ``project_many`` projects it."""
        Z = np.asarray(Z, dtype=float)
        return np.array([self.body(i).project_many(z) for i, z in zip(rows, Z)]).reshape(Z.shape)

    def contains(self, rows, Y) -> np.ndarray:
        """Whether each point of block ``Y[n]`` lies in body ``rows[n]``,
        shape (R, k), as that body's ``contains_many`` tells at its default
        slack."""
        Y = np.asarray(Y, dtype=float)
        return np.array([self.body(i).contains_many(y) for i, y in zip(rows, Y)],
                        dtype=bool).reshape(Y.shape[:2])

    def coord_extremes(self) -> tuple:
        """``(lo, hi, arg_lo, arg_hi)``, shapes (N, m) and (N, m, m): each
        body's :meth:`ConvexBody.coord_extremes`."""
        each = [self.body(i).coord_extremes() for i in range(len(self))]
        m = self.dim
        return tuple(np.array([e[k] for e in each], dtype=float).reshape((len(self),) + shape)
                     for k, shape in enumerate(((m,), (m,), (m, m), (m, m))))

    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape (N, m): each body's coordinate bounds."""
        lo, hi, _, _ = self.coord_extremes()
        return lo, hi

    def sample_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape (N, m): the box that each body's
        ``sample_bounds`` gives, infinite on the rows of a body that cannot
        be sampled (unbounded, with no box)."""
        return self.coord_bounds()

    def project(self, Z) -> np.ndarray:
        """Row i of ``Z`` (shape (N, m)) projected onto body i."""
        Z = np.asarray(Z, dtype=float)
        return self.project_rows(np.arange(len(self)), Z[:, None])[:, 0]

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

    def project_rows(self, rows, Z) -> np.ndarray:
        # np.clip between scalar bounds keeps the point where it ties with a
        # bound, between array bounds it takes the bound: the sign of a zero
        # tells them apart, so the ties are kept here as the body keeps them
        Z = np.asarray(Z, dtype=float)
        lo, hi = self.lo[rows, None, None], self.hi[rows, None, None]
        Y = np.where(lo > Z, lo, Z)
        return np.where(hi < Y, hi, Y)

    def contains(self, rows, Y) -> np.ndarray:
        y = np.asarray(Y, dtype=float)[:, :, 0]
        lo, hi = self.lo[rows] - CONTAINS_TOL, self.hi[rows] + CONTAINS_TOL
        return (y >= lo[:, None]) & (y <= hi[:, None])

    def coord_extremes(self):
        lo, hi = self.lo[:, None].copy(), self.hi[:, None].copy()
        # a finite end is its own extreme point
        return lo, hi, *(np.where(np.isinf(v), math.nan, v)[:, :, None] for v in (lo, hi))


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

    def project_rows(self, rows, Z) -> np.ndarray:
        C = self.centers[rows, None, :]
        D = np.asarray(Z, dtype=float) - C
        norms = np.linalg.norm(D, axis=2)
        scale = np.ones_like(norms)
        out = norms > self.radii[rows, None]
        scale[out] = np.broadcast_to(self.radii[rows, None], out.shape)[out] / norms[out]
        return C + D * scale[:, :, None]

    def contains(self, rows, Y) -> np.ndarray:
        D = np.asarray(Y, dtype=float) - self.centers[rows, None, :]
        return np.linalg.norm(D, axis=2) <= (self.radii[rows] + CONTAINS_TOL)[:, None]

    def coord_extremes(self):
        r = self.radii[:, None]
        # the ends of the diameter along each axis
        step = r[:, :, None] * np.eye(self.dim)
        C = self.centers[:, None, :]
        return self.centers - r, self.centers + r, C - step, C + step


class PolytopeBatch(BodyBatch):
    """Polytopes ``{y : A y <= b_i}`` that share their normals ``A`` and
    the exact kernel's operators ``sets`` (``kernel_operators(A)``; None
    past the kernel's limit), with ``b_i`` the rows of ``B``.
    ``bounding_box`` is None or a pair ``(lo, hi)`` that broadcasts to
    (N, m): row i is body i's box, which :meth:`translate` shifts with the
    body as :meth:`HPolytope.translate` does.

    Zero rows of ``A`` are resolved and, unless ``_validated``, every row
    is checked nonempty, as :class:`HPolytope` describes.  The kernel's
    products are stacked over the rows, so that each row's are taken one
    at a time by the same BLAS calls as for that row alone; an
    :class:`HPolytope` is a batch of one row.  The candidates for the
    origin give every row's least-norm point and coordinate extremes, and
    are computed once.  A row where the kernel finds no member among them
    (empty, or too ill-conditioned for the kernel to tell) is on the
    fallback path once that is known, as is every row without ``sets``:
    Dykstra's scheme projects its blocks of points, and linear programs
    give its extremes and confirm it nonempty.  The points of a block that
    the kernel cannot answer go to Dykstra's scheme together.
    """

    def __init__(self, A, sets, B, bounding_box=None, _validated: bool = False):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float).reshape(-1, A.shape[0])
        if bounding_box is not None:
            bounding_box = tuple(np.broadcast_to(v, (B.shape[0], A.shape[1]))
                                 for v in bounding_box)
        zero = np.linalg.norm(A, axis=1) == 0.0
        if zero.any():
            if np.any(B[:, zero] < 0):
                raise InfeasibleBodyError("constraint 0 <= b with b < 0")
            A, B = A[~zero], B[:, ~zero]
        self.A, self.B, self.dim = A, B, A.shape[1]
        self.bounding_box = bounding_box
        self._sets = sets
        self._norms = np.linalg.norm(A, axis=1)
        self._origin = None
        if not _validated:
            for i in np.flatnonzero(self._lost()):
                self._lp_feasible(i)  # the LP confirms the row or raises

    def __len__(self) -> int:
        return self.B.shape[0]

    def body(self, i: int) -> HPolytope:
        """Row i as the :class:`HPolytope` the map builds, in the state the
        batch's queries so far have left it: once the batch holds the
        candidates for the origin, the body takes its own from them."""
        box = self.bounding_box
        if box is not None:
            box = (box[0][i], box[1][i])
        body = HPolytope(self.A, self.B[i], bounding_box=box, _validated=True, _sets=self._sets)
        if self._origin is not None:
            body._row._origin = tuple(a[i : i + 1] for a in self._origin)
        return body

    def _blocks(self, count: int, k: int):
        """``(block slice, point slice)`` chunks of ``count`` blocks of ``k``
        points whose candidates fit in the chunk size: several whole blocks
        at a time, or one block in parts."""
        K, p = self._sets.shape[:2]
        per = max(1, _CANDIDATE_FLOATS // (K * (p + self.dim)))  # points per chunk
        step, part = max(1, per // max(k, 1)), max(1, min(k, per))
        for r in range(0, count, step):
            for s in range(0, k, part):
                yield slice(r, r + step), slice(s, s + part)

    def _candidates(self, rows, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every active-set candidate of body ``rows[n]`` for each point of
        block ``Z[n]``, shape (R, K, k, m), and whether it lies in that
        body, shape (R, K, k)."""
        W = Z @ self.A.T - self.B[rows, None, :]
        Y = Z[:, None] - W[:, None] @ self._sets
        R, K, k, m = Y.shape
        return Y, self.contains(rows, Y.reshape(R, K * k, m)).reshape(R, K, k)

    def _origin_candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's candidates for the origin, shape (N, K, m), and which
        lie in its body, shape (N, K), computed once."""
        if self._origin is None:
            N, K = len(self), self._sets.shape[0]
            Y, inside = np.empty((N, K, self.dim)), np.empty((N, K), dtype=bool)
            zero = np.zeros((N, 1, self.dim))
            for rows, _ in self._blocks(N, 1):
                Yr, inside_r = self._candidates(rows, zero[rows])
                Y[rows], inside[rows] = Yr[:, :, 0], inside_r[:, :, 0]
            self._origin = (Y, inside)
        return self._origin

    def _lost(self) -> np.ndarray:
        """The rows on the fallback path, from the candidates for the
        origin."""
        if self._sets is None:
            return np.ones(len(self), dtype=bool)
        return ~self._origin_candidates()[1].any(axis=1)

    def contains(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        slack = self.B[rows, :, None] - self.A @ np.asarray(Y, dtype=float).transpose(0, 2, 1)
        return np.all(slack >= -tol * np.maximum(1.0, self._norms)[:, None], axis=1)

    def project_rows(self, rows, Z) -> np.ndarray:
        rows = np.asarray(rows)
        Z = np.asarray(Z, dtype=float)
        out = np.empty_like(Z)
        found = np.zeros(Z.shape[:2], dtype=bool)
        if self._sets is not None:
            for r, s in self._blocks(len(rows), Z.shape[1]):
                Zc = Z[r, s]
                Y, inside = self._candidates(rows[r], Zc)
                d2 = np.where(inside, np.sum((Y - Zc[:, None]) ** 2, axis=3), np.inf)
                best = np.argmin(d2, axis=1)[:, None]
                out[r, s] = np.take_along_axis(Y, best[..., None], axis=1)[:, 0]
                found[r, s] = np.take_along_axis(inside, best, axis=1)[:, 0]
            if self._origin is not None:
                found[self._lost()[rows]] = False  # rows on the fallback path
        for n in np.flatnonzero(~found.all(axis=1)):
            miss = ~found[n]
            out[n, miss] = self._dykstra(rows[n], Z[n, miss])
        return out

    def least_norm(self) -> np.ndarray:
        lost = self._lost()
        out = np.empty((len(self), self.dim))
        if self._sets is not None:
            Y, inside = self._origin
            d2 = np.where(inside, np.sum(Y**2, axis=2), np.inf)
            out[:] = Y[np.arange(len(self)), np.argmin(d2, axis=1)]
        for i in np.flatnonzero(lost):
            out[i] = self._dykstra(i, np.zeros((1, self.dim)))[0]
        return out

    def coord_extremes(self):
        lost = self._lost()
        if self._sets is None:
            N, m = len(self), self.dim
            extremes = (np.empty((N, m)), np.empty((N, m)), np.empty((N, m, m)), np.empty((N, m, m)))
        else:
            extremes = _kernel_extremes(self.A, self._sets, self._norms, *self._origin)
        for i in np.flatnonzero(lost):
            for a, v in zip(extremes, self._lp_extremes(i)):
                a[i] = v
        return extremes

    def sample_bounds(self):
        lo, hi = self.coord_bounds()
        if self.bounding_box is not None:
            # an unbounded body samples in its box
            box = ~(np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1))
            lo[box], hi[box] = self.bounding_box[0][box], self.bounding_box[1][box]
        return lo, hi

    def translate(self, C) -> "PolytopeBatch":
        C = np.asarray(C, dtype=float)
        B = self.B + np.matmul(self.A, C[:, :, None])[:, :, 0]
        box = self.bounding_box
        if box is not None:
            box = (box[0] + C, box[1] + C)
        return PolytopeBatch(self.A, self._sets, B, box, _validated=True)

    # -- fallback: Dykstra's projection and linear programs, row by row --------

    def _dykstra(self, i: int, Z: np.ndarray) -> np.ndarray:
        """Each row of ``Z`` projected onto body i by Dykstra's cyclic
        scheme, batched over the rows; raises :class:`ProjectionError` if the
        sweep budget runs out while an iterate still violates a row."""
        A, b, norms2 = self.A, self.B[i], self._norms**2
        if A.shape[0] == 0:
            return Z.copy()
        if np.all(A @ Z.T - b[:, None] <= 0):
            return Z.copy()
        Y = Z.copy()
        corr = np.zeros((A.shape[0],) + Y.shape)
        for _ in range(MAX_PROJECTION_SWEEPS):
            start = Y.copy()
            corr_start = corr.copy()
            for j in range(A.shape[0]):
                W = Y + corr[j]
                t = (W @ A[j] - b[j]) / norms2[j]
                np.maximum(t, 0.0, out=t)
                Y = W - t[:, None] * A[j]
                corr[j] = W - Y
            # the iterate alone can revisit a point mid-convergence while
            # the corrections still churn; both must settle before stopping
            move = max(
                float(np.max(np.abs(Y - start))),
                float(np.max(np.abs(corr - corr_start))),
            )
            if move < PROJECTION_TOL:
                break
        worst = float(np.max((A @ Y.T - b[:, None]) / self._norms[:, None]))
        if worst > 1e-7:
            raise ProjectionError(
                f"projection did not converge (residual {worst:.3e})"
            )
        return Y

    def _lp_feasible(self, i: int) -> None:
        """Raise :class:`InfeasibleBodyError` unless body i has a point, as
        a linear program decides."""
        m = self.dim
        res = linprog(c=np.zeros(m), A_ub=self.A, b_ub=self.B[i], bounds=[(None, None)] * m,
                      method="highs")
        if res.status == 2:
            raise InfeasibleBodyError("halfspace system has no solution")
        if not res.success:
            raise InfeasibleBodyError(f"feasibility check failed: {res.message}")

    def _lp_extremes(self, i: int) -> tuple:
        """Body i's ``coord_extremes``, from linear programs."""
        m = self.dim
        bounds = (np.empty(m), np.empty(m))
        args = (np.full((m, m), math.nan), np.full((m, m), math.nan))
        for j in range(m):
            e = np.zeros(m)
            e[j] = 1.0
            for side, sign in enumerate((1.0, -1.0)):
                lp = dict(c=sign * e, A_ub=self.A, b_ub=self.B[i], bounds=[(None, None)] * m,
                          method="highs")
                res = linprog(**lp)
                if res.status == 2:
                    # the body is nonempty: HiGHS's presolve reports some
                    # unbounded LPs (a slab in R^3) as infeasible
                    res = linprog(**lp, options={"presolve": False})
                if res.status == 3:
                    bounds[side][j] = -sign * math.inf
                elif res.success:
                    x = res.x
                    if self.contains([i], x[None, None])[0, 0]:
                        bounds[side][j] = sign * res.fun
                    else:
                        # HiGHS stops within its feasibility tolerance, which
                        # can leave a thin body; the projection is a member
                        x = self._dykstra(i, x[None])[0]
                        bounds[side][j] = x[j]
                    args[side][j] = x
                else:
                    raise ProjectionError(f"bounds LP failed: {res.message}")
        return bounds[0], bounds[1], args[0], args[1]


class BodyRows(BodyBatch):
    """Bodies held one by one, for bodies with no batch of their own
    (polytopes whose normals vary): every query runs body by body."""

    def __init__(self, bodies, dim: int):
        self.bodies, self.dim = list(bodies), dim

    def __len__(self) -> int:
        return len(self.bodies)

    def body(self, i: int) -> ConvexBody:
        return self.bodies[i]

    def translate(self, C) -> "BodyRows":
        return BodyRows([b.translate(c) for b, c in zip(self.bodies, C)], self.dim)

    def sample_bounds(self):
        lo, hi = np.full((2, len(self), self.dim), math.inf)
        for i, b in enumerate(self.bodies):
            try:
                lo[i], hi[i] = b.sample_bounds()
            except UnboundedBodyError:
                pass
        return lo, hi


class StackedBatch(BodyBatch):
    """N rows split among batches: ``parts`` holds ``(rows, batch)`` pairs,
    row ``rows[j]`` being body j of ``batch``, with ``rows`` ascending;
    every row is in one part."""

    def __init__(self, count: int, dim: int, parts):
        self.count, self.dim, self.parts = count, dim, list(parts)
        # the part that holds each row, and the row's index in that part
        self._part = np.empty(count, dtype=np.intp)
        self._local = np.empty(count, dtype=np.intp)
        for p, (rows, _) in enumerate(self.parts):
            self._part[rows], self._local[rows] = p, np.arange(rows.shape[0])

    def __len__(self) -> int:
        return self.count

    def body(self, i: int) -> ConvexBody:
        return self.parts[self._part[i]][1].body(self._local[i])

    def _gather(self, method: str, *shapes) -> tuple:
        """The arrays of every part's ``method()``, each placed at the
        part's rows of an array of that trailing shape."""
        out = tuple(np.empty((self.count,) + shape) for shape in shapes)
        for rows, batch in self.parts:
            for whole, a in zip(out, getattr(batch, method)()):
                whole[rows] = a
        return out

    def _at(self, method: str, rows, Y, out: np.ndarray) -> np.ndarray:
        """``method(rows, Y)`` of every part on the blocks of its rows,
        written into ``out`` at those blocks."""
        rows = np.asarray(rows)
        part = self._part[rows]
        for p, (_, batch) in enumerate(self.parts):
            at = np.flatnonzero(part == p)
            if at.size:
                out[at] = getattr(batch, method)(self._local[rows[at]], Y[at])
        return out

    def translate(self, C) -> "StackedBatch":
        C = np.asarray(C, dtype=float)
        parts = [(rows, batch.translate(C[rows])) for rows, batch in self.parts]
        return StackedBatch(self.count, self.dim, parts)

    def project_rows(self, rows, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        return self._at("project_rows", rows, Z, np.empty_like(Z))

    def contains(self, rows, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        return self._at("contains", rows, Y, np.empty(Y.shape[:2], dtype=bool))

    def coord_extremes(self):
        m = self.dim
        return self._gather("coord_extremes", (m,), (m,), (m, m), (m, m))

    def sample_bounds(self):
        return self._gather("sample_bounds", (self.dim,), (self.dim,))
