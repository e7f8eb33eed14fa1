"""Nonempty closed convex bodies in R^m and Euclidean projection onto them.

Three variants cover everything the selection pipelines need: intervals
(m = 1, endpoints may be infinite), balls, and H-polytopes
``{y : A y <= b}``.  Each kind has one batch class, a :class:`BodyBatch`
of N bodies whose queries answer every row at once, on arrays, and holds
the one implementation of that kind's queries: a body is a batch of one
row.  Intervals and balls project in closed form.

A polytope in small output dimension m with few rows is handled by one
exact active-set kernel: the nearest point of a polytope is the
projection onto the affine span ``{A_S y = b_S}`` of some set S of at
most m independent rows, ``b_S H_S + z P_S`` from one QR factorization
of ``A_S^T``.  The nearest candidate that passes the membership
certificate (:func:`_certified`) is the projection; the candidates for
the origin give the least-norm point (the feasibility witness checked at
construction) and the coordinate extremes with points attaining them.
The same factorizations tell which coordinates are bounded.  A polytope
batch has one normal matrix that its rows share or one per row; the
kernel factors a stack of them at once, and shared operators broadcast.

Past the kernel's size limit, and on the rare bodies where no candidate
passes the certificate, Seidel's recursion over the rows answers instead
(:func:`_nearest`), with the kernel's candidate formula and certificate:
the projection, the least-norm point, the coordinate extremes and the
verdict that a body is empty.  Either way, every constructed body has
been checked nonempty, so downstream code can treat it as a value of a
set-valued map with nonempty closed convex values.
"""

from __future__ import annotations

import abc
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InfeasibleBodyError,
    ProjectionError,
    UnboundedBodyError,
)
from .fields import pymin

#: Default membership slack for ``contains``; also the membership
#: certificate's slack (:func:`_certified`) at points of size below 1e3.
CONTAINS_TOL = 1e-9

#: The exact kernel handles a polytope when it has fewer candidate active
#: sets (row subsets of size <= m) than this; its work per query point
#: grows with the count, the recursion's (:func:`_nearest`) does not.
_MAX_ACTIVE_SETS = 256

#: Chunk size, in floats, of the candidate arrays built per projection call.
_CANDIDATE_FLOATS = 1 << 20

#: Slack on unit rows: past it :func:`_nearest` takes a row as violated
#: (along a unit direction as is, at a point relative to its size); within
#: it a multiplier has either sign.
_SEIDEL_SLACK = 1e-12

#: A unit row (or direction) whose part off a span is shorter than this
#: lies in it to rounding; a longer part, however short, is a small angle.
_SPAN_TOL = 1e-13


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


def _flat_operators(Q, R) -> tuple:
    """``H = R^-1 Q^T`` and ``P = I - Q Q^T`` (zero at a vertex) from ``Q, R =
    qr(A_S^T)``, stacked or not: the point of ``{A_S y = b_S}`` nearest to z
    is ``b_S H + z P``, and an ill-conditioned R scales ``b_S``, not z."""
    m, k = Q.shape[-2:]
    Qt = np.swapaxes(Q, -1, -2)
    P = np.zeros(Q.shape[:-1] + (m,)) if k == m else np.eye(m) - Q @ Qt
    return np.linalg.solve(R, Qt), P


def _slack(A, B, Y) -> np.ndarray:
    """``b_i - a_i y`` for each point y of block ``Y[n]``, (R, k, m), on each
    row of ``A[n]`` and ``B[n]``, shape (R, p, k)."""
    return B[:, :, None] - A @ Y.transpose(0, 2, 1)


def _within(A, B, norms, Y, tol) -> np.ndarray:
    """Whether each point y of block ``Y[n]``, (R, k, m), has ``b_i - a_i y
    >= -tol max(1, |a_i|)`` on each row of ``A[n]`` (norms ``norms[n]``) and
    ``B[n]``; ``tol`` is a number or one per point, (R, 1, k)."""
    return np.all(_slack(A, B, Y) >= -tol * np.maximum(1.0, norms)[..., None], axis=1)


def _certified(A, B, norms, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
    """The membership certificate, :func:`_within` at ``max(tol, _SEIDEL_SLACK
    (1 + |y|))``, :func:`_nearest`'s row slack where rounding in ``a_i y``
    outgrows ``tol``; below ``|y| = 999``, ``contains`` at ``tol`` bit for bit."""
    size = np.sqrt(np.einsum("...i,...i->...", Y, Y))
    return _within(A, B, norms, Y, np.maximum(tol, _SEIDEL_SLACK * (1.0 + size))[:, None, :])


def _check_finite(*data):
    if not all(np.isfinite(a).all() for a in data):
        raise InfeasibleBodyError("polytope data must be finite")


class KernelOperators(NamedTuple):
    """The exact kernel's operators (:func:`kernel_operators`)."""

    H: np.ndarray
    P: np.ndarray
    bounded: np.ndarray
    keep: np.ndarray


def kernel_operators(A) -> KernelOperators | None:
    """The exact kernel's operators for the normals ``A``, one matrix (p, m)
    or a stack (..., p, m) with operators per matrix, or None when
    polytopes with these normals take the fallback path.  They depend on
    ``A`` alone, so polytopes that share their normals share them,
    read-only, as ``_sets``.  Rows zero in every matrix are dropped, as
    :class:`PolytopeBatch` drops them.

    The candidates for points z and offsets b are ``b H + z P``, m columns
    per row subset S (by size, the empty set first): ``H`` (..., p, K m)
    holds S's ``R^-1 Q^T`` on its rows, ``P`` (..., m, K m) S's projector,
    with one QR call per subset size.  A matrix keeps S (``keep``, (...,
    K)) when each row's part off the span of those before it exceeds
    ``_SPAN_TOL`` of its norm, as in :func:`_nearest`; S is left out when
    no matrix keeps it, and its ``R`` is the identity where it is masked,
    so that the solve cannot fail.  ``bounded`` (..., 2, m): ``y_j`` is
    bounded below (row 0) or above (row 1) when a kept S has ``e_j`` in
    its span to ``_SPAN_TOL`` with unit-row multipliers ``R^-1 Q^T e_j``
    <= ``_SEIDEL_SLACK`` (>= ``-_SEIDEL_SLACK``).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _check_finite(A)
    norms = np.linalg.norm(A, axis=-1)
    live = ~np.all(norms.reshape(-1, A.shape[-2]) == 0.0, axis=0)
    A, norms = A[..., live, :], norms[..., live]
    lead, (p, m) = A.shape[:-2], A.shape[-2:]
    if _active_set_count(p, m) >= _MAX_ACTIVE_SETS:
        return None
    H, P = [np.zeros(lead + (p, 1, m))], [np.broadcast_to(np.eye(m)[:, None], lead + (m, 1, m))]
    keep = [np.ones(lead + (1,), dtype=bool)]
    for k in range(1, min(p, m) + 1):
        idx = _row_subsets(p, k)
        Q, R = np.linalg.qr(np.swapaxes(A[..., idx, :], -1, -2))
        kept = np.all(np.abs(np.diagonal(R, axis1=-2, axis2=-1)) > _SPAN_TOL * norms[..., idx],
                      axis=-1)
        HS, PS = _flat_operators(Q, np.where(kept[..., None, None], R, np.eye(k)))
        H.append(np.zeros(lead + (p, idx.shape[0], m)))
        H[-1][..., idx, np.arange(idx.shape[0])[:, None], :] = HS
        P.append(np.swapaxes(PS, -3, -2))
        keep.append(kept)
    H, P, keep = (np.concatenate(a, axis=axis) for a, axis in ((H, -2), (P, -2), (keep, -1)))
    some = np.any(keep.reshape(-1, keep.shape[-1]), axis=0)  # kept by some matrix
    H, P, keep = H[..., some, :], P[..., some, :], keep[..., some]  # K subsets left
    spans = keep[..., None] & (np.linalg.norm(P, axis=-3) <= _SPAN_TOL)  # e_j in the span of S
    lam = H * norms[..., None, None]  # zero off S
    bounded = np.stack([np.any(spans & np.all(lam <= _SEIDEL_SLACK, axis=-3), axis=-2),
                        np.any(spans & np.all(lam >= -_SEIDEL_SLACK, axis=-3), axis=-2)], axis=-2)
    K = keep.shape[-1]
    sets = KernelOperators(H.reshape(lead + (p, K * m)), P.reshape(lead + (m, K * m)), bounded, keep)
    for a in sets:
        a.setflags(write=False)
    return sets


def _nearest(A, b, z, w) -> tuple | None:
    """The point of ``{y : A y <= b}`` nearest to ``z + T w`` for every
    large enough T, as ``(y, d)``, that point being ``y + T d``; None when
    the body is empty.  ``d`` is zero unless the body is unbounded along
    ``w``, however slowly; where it is zero, ``y`` must pass the membership
    certificate, or :class:`ProjectionError` is raised.

    With ``w = 0`` this is the projection of ``z``; with ``z = 0`` and
    ``w = +-e_j`` it is the least-norm point of the face where ``y_j`` is
    extreme.  Seidel's recursion (1991) over the rows, in move-to-front
    order: the nearest point over the rows before row r either satisfies r
    for all large T, or the nearest point over them and r lies on r's
    hyperplane, and the rows before r decide it there.  So each call holds
    a set S of rows taken as tight, and its point is the kernel's candidate
    for S, ``b_S H + z P`` (:func:`_flat_operators`).  A violated row in the
    span of S (``_SPAN_TOL``) leaves the body empty if the multipliers that
    combine it from S certify so beyond their rounding (Farkas).
    """
    norms = np.linalg.norm(A, axis=1)
    order = list(range(A.shape[0]))

    def solve(n, S):
        S = sorted(S)  # factored in index order, as the kernel factors S
        H, P = _flat_operators(*np.linalg.qr(A[S].T))
        y = b[S] @ H + z @ P
        d = w @ P
        if np.linalg.norm(d) <= _SPAN_TOL * np.linalg.norm(w):
            d = np.zeros_like(d)  # w lies in the span of S
        found = y, d, P  # and the projector off the span of S, where d lies
        i = 0
        while i < n:
            y, d, P_d = found
            rows = order[i:n]
            # slopes along unit d from the rows' parts off the span d is normal to
            slope = (A[rows] @ P_d) @ d / (np.linalg.norm(d) or 1.0)
            over = A[rows] @ y - b[rows]
            tol = _SEIDEL_SLACK * norms[rows]
            bad = (slope > tol) | ((slope >= -tol) & (over > tol * (1.0 + np.abs(y).max())))
            if not bad.any():
                break
            i += int(np.argmax(bad))
            r = order[i]
            if np.linalg.norm(A[r] @ P) > _SPAN_TOL * norms[r]:  # r's part off the span of S
                found = solve(i, S + [r])
                if found is None:
                    return None
                order.insert(0, order.pop(i))  # after the call: r is not its own subproblem
            else:  # a_r = A_S^T lam, so a_r y = lam b_S on the flat of S: the
                # body is empty if that exceeds b_r beyond its rounding
                lam = H @ A[r]
                gap = lam @ b[S] - b[r]
                if gap > _SEIDEL_SLACK * (norms[r] + abs(b[r]) + np.abs(lam) @ np.abs(b[S])):
                    return None
            i += 1
        return found

    found = solve(len(order), [])
    if found is None:
        return None
    y, d, _ = found
    if not d.any() and not _certified(A, b[None], norms, y[None, None])[0, 0]:
        raise ProjectionError("the exact polytope solver returned a point outside the body")
    return y, d


#: The name under which perfbench/tracer.py spans the fallback solver.
linprog = _nearest


class ConvexBody:
    """A nonempty closed convex subset of R^m, held as the one-row
    :class:`BodyBatch` ``_row``, which answers every query: each query is
    written once per body kind, on arrays.  A kind adds its constructor and
    its attributes."""

    _row: "BodyBatch"

    @classmethod
    def _view(cls, row: "BodyBatch") -> "ConvexBody":
        """The body of the one-row batch ``row``, already checked."""
        body = cls.__new__(cls)
        body._row = row
        return body

    @property
    def dim(self) -> int:
        return self._row.dim

    def boundary_margin(self, y) -> float:
        """Signed distance from ``y`` to the boundary: > 0 strictly inside,
        < 0 outside, 0 on the boundary (and everywhere on flat bodies)."""
        return float(self._row.boundary_margin([0], self._check_dim(y)[None, None])[0, 0])

    def _check_dim(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (self.dim,):
            raise DimensionMismatchError(f"expected point of shape ({self.dim},), got {y.shape}")
        return y

    def project_many(self, Z) -> np.ndarray:
        """Euclidean projection of each row of ``Z`` (shape (N, m))."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return self._row.project_rows([0], Z[None])[0]

    def contains_many(self, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        """Boolean membership mask for each row of ``Y``."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return self._row.contains([0], Y[None], tol)[0]

    def translate(self, c) -> "ConvexBody":
        """The body shifted by ``c`` (feasibility is preserved, no re-check)."""
        return self._view(self._row.translate(np.asarray(c, dtype=float).reshape(1, -1)))

    def coord_extremes(self) -> tuple:
        """``(lo, hi, arg_lo, arg_hi)``: the coordinate bounds, +-inf where
        unbounded, and in row j of the (m, m) arrays ``arg_lo``/``arg_hi`` a
        member attaining ``lo[j]``/``hi[j]`` (NaN where that bound is
        infinite)."""
        return tuple(a[0] for a in self._row.coord_extremes())

    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Componentwise (inf, sup) over the body; +-inf where unbounded."""
        lo, hi = self._row.coord_bounds()
        return lo[0], hi[0]

    def sample_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The box to sample the body in: its coordinate bounds, or where
        they are infinite a polytope's declared box."""
        lo, hi = (v[0] for v in self._row.sample_bounds())
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise UnboundedBodyError("sampling an unbounded body needs a declared bounding box")
        return lo, hi

    def least_norm(self) -> np.ndarray:
        """The unique point of minimal Euclidean norm."""
        return self._row.least_norm()[0]

    def contains(self, y, tol: float = CONTAINS_TOL) -> bool:
        return bool(self.contains_many(self._check_dim(y)[None], tol)[0])

    def project(self, z) -> np.ndarray:
        return self.project_many(self._check_dim(z)[None])[0]

    def distance(self, z) -> float:
        z = self._check_dim(z)
        return float(np.linalg.norm(self.project(z) - z))


# perfbench/tracer.py wraps ``__init__``, ``project_many`` and ``coord_bounds``
# in each body class's own ``__dict__``, so each class below names the last
# two again.


class Interval(ConvexBody):
    """A closed interval of the extended line (m = 1)."""

    def __init__(self, lo: float, hi: float):
        self._row = IntervalBatch([lo], [hi])

    lo = property(lambda self: float(self._row.lo[0]))
    hi = property(lambda self: float(self._row.hi[0]))
    project_many = ConvexBody.project_many
    coord_bounds = ConvexBody.coord_bounds

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


class Ball(ConvexBody):
    """The closed ball of radius ``radius`` about ``center``."""

    def __init__(self, center, radius: float):
        self._row = BallBatch(np.asarray(center, dtype=float).reshape(1, -1), [radius])

    center = property(lambda self: self._row.centers[0])
    radius = property(lambda self: float(self._row.radii[0]))
    project_many = ConvexBody.project_many
    coord_bounds = ConvexBody.coord_bounds

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class HPolytope(ConvexBody):
    """Intersection of halfspaces ``{y : A y <= b}``, checked nonempty: a
    :class:`PolytopeBatch` of one row, which tells how it is solved.
    ``bounding_box`` is optional and only consulted by sampling when a
    coordinate is unbounded.
    """

    def __init__(self, A, b, bounding_box=None, _sets=None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(f"A has {A.shape[0]} rows but b has {b.shape[0]} entries")
        sets = kernel_operators(A) if _sets is None else _sets
        self._row = PolytopeBatch(A, sets, b, bounding_box)

    A = property(lambda self: self._row.A.reshape(self._row.A.shape[-2:]))
    b = property(lambda self: self._row.B[0])
    project_many = ConvexBody.project_many
    coord_bounds = ConvexBody.coord_bounds

    @property
    def bounding_box(self):
        box = self._row.bounding_box
        return None if box is None else (box[0][0], box[1][0])

    @property
    def _sets(self):
        """The kernel's operators, or None on the fallback path."""
        return None if self._row._lost[0] else self._row._sets

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
    """N bodies in R^m, one per row, whose queries answer every row at
    once, on arrays.

    A query of several points per body takes ``rows``, body indices, and
    blocks of shape (R, k, m), block n going to body ``rows[n]``.  A kind
    of body has one batch class, which names the body class as ``kind`` and
    slices its rows with ``take(rows)``; body i is the batch of row i.
    """

    dim: int
    kind: type

    @abc.abstractmethod
    def __len__(self) -> int:
        """The number of bodies."""

    @abc.abstractmethod
    def translate(self, C) -> "BodyBatch":
        """Body i shifted by row i of ``C`` (shape (N, m))."""

    @abc.abstractmethod
    def project_rows(self, rows, Z) -> np.ndarray:
        """Block ``Z[n]`` projected onto body ``rows[n]``."""

    @abc.abstractmethod
    def contains(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        """Whether each point of block ``Y[n]`` lies in body ``rows[n]``
        within the slack ``tol``, shape (R, k)."""

    @abc.abstractmethod
    def boundary_margin(self, rows, Y) -> np.ndarray:
        """:meth:`ConvexBody.boundary_margin` of body ``rows[n]`` at each point
        of block ``Y[n]``, shape (R, k)."""

    @abc.abstractmethod
    def coord_extremes(self) -> tuple:
        """``(lo, hi, arg_lo, arg_hi)``, shapes (N, m) and (N, m, m): each
        body's :meth:`ConvexBody.coord_extremes`."""

    def body(self, i: int) -> ConvexBody:
        """Body i, as the map's rule builds it at that point."""
        return self.kind._view(self.take([i]))

    def coord_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape (N, m): each body's coordinate bounds."""
        lo, hi, _, _ = self.coord_extremes()
        return lo.copy(), hi.copy()

    def sample_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape (N, m): the box to sample each body in,
        infinite on the rows of a body that cannot be sampled (unbounded,
        with no box)."""
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
    """Intervals ``[lo_i, hi_i]`` of the extended line (m = 1)."""

    kind = Interval

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        # NaNs compare False, so ``lo <= hi`` rules them out too
        ok = (lo <= hi) & ((lo != hi) | np.isfinite(lo))
        if not ok.all():
            a, b = float(lo[np.argmin(ok)]), float(hi[np.argmin(ok)])  # the first bad row
            if math.isnan(a) or math.isnan(b):
                raise InfeasibleBodyError("interval endpoint is NaN")
            if a > b:
                raise InfeasibleBodyError(f"interval has lo={a} > hi={b}")
            raise InfeasibleBodyError(f"interval [{a}, {b}] has no real point")
        self.lo, self.hi, self.dim = lo, hi, 1

    def __len__(self) -> int:
        return self.lo.shape[0]

    def take(self, rows) -> "IntervalBatch":
        return IntervalBatch(self.lo[rows], self.hi[rows])

    def translate(self, C) -> "IntervalBatch":
        c = np.asarray(C, dtype=float)[:, 0]
        return IntervalBatch(self.lo + c, self.hi + c)

    def project_rows(self, rows, Z) -> np.ndarray:
        # np.clip between array bounds takes the bound where the point ties
        # with it, and the sign of a zero tells them apart: the point is
        # kept on a tie, as between scalar bounds
        Z = np.asarray(Z, dtype=float)
        lo, hi = self.lo[rows, None, None], self.hi[rows, None, None]
        Y = np.where(lo > Z, lo, Z)
        return np.where(hi < Y, hi, Y)

    def contains(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        y = np.asarray(Y, dtype=float)[:, :, 0]
        lo, hi = self.lo[rows] - tol, self.hi[rows] + tol
        return (y >= lo[:, None]) & (y <= hi[:, None])

    def boundary_margin(self, rows, Y) -> np.ndarray:
        y = np.asarray(Y, dtype=float)[:, :, 0]
        return pymin(y - self.lo[rows, None], self.hi[rows, None] - y)

    def coord_extremes(self):
        lo, hi = self.lo[:, None].copy(), self.hi[:, None].copy()
        # a finite end is its own extreme point
        return lo, hi, *(np.where(np.isinf(v), math.nan, v)[:, :, None] for v in (lo, hi))


class BallBatch(BodyBatch):
    """Balls with centres the rows of ``centers`` and radii ``radii``."""

    kind = Ball

    def __init__(self, centers, radii):
        C = np.asarray(centers, dtype=float)
        r = np.asarray(radii, dtype=float).reshape(-1)
        ok = (r >= 0) & np.isfinite(r) & np.isfinite(C).all(axis=1)
        if not ok.all():
            radius = float(r[np.argmin(ok)])  # the first bad row
            if radius < 0:
                raise InfeasibleBodyError(f"negative radius {radius}")
            raise InfeasibleBodyError("ball parameters must be finite")
        self.centers, self.radii, self.dim = C, r, C.shape[1]

    def __len__(self) -> int:
        return self.radii.shape[0]

    def take(self, rows) -> "BallBatch":
        return BallBatch(self.centers[rows], self.radii[rows])

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

    def contains(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        D = np.asarray(Y, dtype=float) - self.centers[rows, None, :]
        return np.linalg.norm(D, axis=2) <= (self.radii[rows] + tol)[:, None]

    def boundary_margin(self, rows, Y) -> np.ndarray:
        D = np.asarray(Y, dtype=float) - self.centers[rows, None, :]
        return self.radii[rows, None] - row_norms(D.reshape(-1, self.dim)).reshape(D.shape[:2])

    def coord_extremes(self):
        r = self.radii[:, None]
        # the ends of the diameter along each axis
        step = r[:, :, None] * np.eye(self.dim)
        C = self.centers[:, None, :]
        return self.centers - r, self.centers + r, C - step, C + step


class PolytopeBatch(BodyBatch):
    """Polytopes ``{y : A_i y <= b_i}``, ``b_i`` the rows of ``B``, with the
    exact kernel's operators ``sets = kernel_operators(A)`` (None past the
    kernel's limit).  ``A`` is one normal matrix (p, m) that the rows
    share, or one per row (N, p, m), and ``sets`` has its leading axes:
    shared operators broadcast over the rows, so one query code serves
    both.  ``bounding_box`` is None or a pair ``(lo, hi)`` that broadcasts
    to (N, m): row i is body i's box, which :meth:`translate` shifts.

    Non-finite data raises, and zero normals are resolved at construction:
    a vacuous constraint (``0 <= b_i`` with ``b_i >= 0``) is kept, or
    dropped where every row's normal is zero, an impossible one raises;
    unless ``_validated``, every row is checked nonempty.  The kernel's
    products are stacked over the rows (:meth:`_candidates`).  The
    candidates for the origin that pass the certificate (:meth:`_certify`)
    give every row's least-norm point and coordinate extremes; they are
    computed when the batch is made (:meth:`take` slices them).  A row
    where none passes (empty, or too ill-conditioned for the kernel to
    tell) is on the fallback path (``_lost``, fixed with them), as is
    every row without ``sets``: :func:`_nearest`, on the row's own
    normals, confirms it nonempty, gives its least-norm point, its
    extremes (two calls per coordinate) and the projection of each of its
    points.  A point that the kernel cannot answer goes to
    :func:`_nearest` alone, so a block projects as its points one at a
    time.
    """

    kind = HPolytope

    def __init__(self, A, sets, B, bounding_box=None, _validated: bool = False, _origin=None):
        A = np.asarray(A, dtype=float)
        p, m = A.shape[-2:]
        B = np.asarray(B, dtype=float).reshape(-1, p)
        if bounding_box is not None:
            bounding_box = tuple(np.broadcast_to(v, (B.shape[0], m)) for v in bounding_box)
        _check_finite(A, B)
        if not _validated:
            zero = np.linalg.norm(A, axis=-1) == 0.0
            if np.any(zero & (B < 0)):
                raise InfeasibleBodyError("constraint 0 <= b with b < 0")
            live = ~np.all(zero.reshape(-1, p), axis=0)  # as kernel_operators keeps them
            A, B = A[..., live, :], B[:, live]
        self.A, self.B, self.dim = A, np.ascontiguousarray(B), m  # strided B misses BLAS
        self.bounding_box = bounding_box
        self._sets = sets
        self._norms = np.linalg.norm(A, axis=-1)
        self._extremes = None
        if sets is None:
            self._origin, self._lost = None, np.ones(len(self), dtype=bool)
        else:
            self._origin = self._origin_candidates() if _origin is None else _origin
            self._lost = ~self._origin[1].any(axis=1)
        if not _validated:
            for i in np.flatnonzero(self._lost):
                self._solve(i, np.zeros(self.dim))  # confirms the row or raises

    def __len__(self) -> int:
        return self.B.shape[0]

    def _of(self, a, rows) -> np.ndarray:
        """``a`` (``A``, its norms or an array of ``sets``) for the bodies
        ``rows``, with a leading axis: each body's own, or the one that
        shared normals broadcast over them."""
        return a[rows] if self.A.ndim == 3 else a[None]

    def take(self, rows) -> "PolytopeBatch":
        """The batch of ``rows``, with their candidates for the origin."""
        box, A, sets, origin = self.bounding_box, self.A, self._sets, self._origin
        if box is not None:
            box = (box[0][rows], box[1][rows])
        if A.ndim == 3:
            A = A[rows]
            sets = None if sets is None else KernelOperators(*(a[rows] for a in sets))
        if origin is not None:
            origin = tuple(a[rows] for a in origin)
        return PolytopeBatch(A, sets, self.B[rows], box, _validated=True, _origin=origin)

    def _blocks(self, count: int, k: int):
        """``(block slice, point slice)`` chunks of ``count`` blocks of ``k``
        points whose candidates fit in the chunk size: several whole blocks
        at a time, or one block in parts."""
        p, Km = self._sets.H.shape[-2:]
        per = max(1, _CANDIDATE_FLOATS // (Km // self.dim * (p + self.dim)))  # points per chunk
        step, part = max(1, per // max(k, 1)), max(1, min(k, per))
        for r in range(0, count, step):
            for s in range(0, k, part):
                yield slice(r, r + step), slice(s, s + part)

    def _candidates(self, rows, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every active-set candidate of body ``rows[n]`` for each point of
        block ``Z[n]``, shape (R, k, K, m), and whether it is one of that
        body's kept subsets and passes its membership certificate, shape (R,
        k, K).  The products are stacked over the rows, and numpy's matmul
        takes each row's by its own BLAS call, so for a C-contiguous ``Z``
        row n is bit for bit what body ``rows[n]`` gives alone for the block
        ``Z[n]``, whatever R and the other rows are."""
        R, k, m = Z.shape
        H, P, _, keep = (self._of(a, rows) for a in self._sets)
        Y = (self.B[rows, None, :] @ H + Z @ P).reshape(R, k, -1, m)
        inside = self._certify(rows, Y.reshape(R, -1, m)).reshape(Y.shape[:3])
        return Y, inside & keep[:, None, :]

    def _certify(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        """:func:`_certified` of each point of block ``Y[n]`` in body
        ``rows[n]``, shape (R, k)."""
        return _certified(self._of(self.A, rows), self.B[rows], self._of(self._norms, rows), Y, tol)

    def _origin_candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's candidates for the origin, shape (N, K, m), and which
        lie in its body, shape (N, K)."""
        N, K = len(self), self._sets.H.shape[-1] // self.dim
        Y, inside = np.empty((N, K, self.dim)), np.empty((N, K), dtype=bool)
        zero = np.zeros((N, 1, self.dim))
        for rows, _ in self._blocks(N, 1):
            Yr, inside_r = self._candidates(rows, zero[rows])
            Y[rows], inside[rows] = Yr[:, 0], inside_r[:, 0]
        return Y, inside

    def contains(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        return _within(self._of(self.A, rows), self.B[rows], self._of(self._norms, rows), Y, tol)

    def boundary_margin(self, rows, Y) -> np.ndarray:
        # inside, the nearest facet's hyperplane is at the boundary distance;
        # a normal that vanishes at a row is vacuous there
        Y, norms = np.ascontiguousarray(Y, dtype=float), self._of(self._norms, rows)[..., None]
        slack = _slack(self._of(self.A, rows), self.B[rows], Y)
        slack = np.divide(slack, norms, out=np.full(slack.shape, math.inf), where=norms != 0.0)
        worst = np.min(slack, axis=1, initial=math.inf)
        outside = ~(worst >= 0)
        if outside.any():
            worst[outside] = -row_norms((self.project_rows(rows, Y) - Y)[outside])
        return worst

    def project_rows(self, rows, Z) -> np.ndarray:
        rows = np.asarray(rows)
        Z = np.ascontiguousarray(Z, dtype=float)
        out = np.empty_like(Z)
        found = np.zeros(Z.shape[:2], dtype=bool)
        if self._sets is not None:
            for r, s in self._blocks(len(rows), Z.shape[1]):
                Zc = Z[r, s]
                Y, inside = self._candidates(rows[r], Zc)
                d2 = np.where(inside, np.sum((Y - Zc[:, :, None]) ** 2, axis=3), np.inf)
                best = np.argmin(d2, axis=2)[..., None]
                out[r, s] = np.take_along_axis(Y, best[..., None], axis=2)[:, :, 0]
                found[r, s] = np.take_along_axis(inside, best, axis=2)[:, :, 0]
            found[self._lost[rows]] = False  # rows on the fallback path
        for n, s in zip(*np.nonzero(~found)):
            out[n, s] = self._solve(rows[n], Z[n, s])[0]
        return out

    def least_norm(self) -> np.ndarray:
        out = np.empty((len(self), self.dim))
        if self._sets is not None:
            Y, inside = self._origin
            d2 = np.where(inside, np.sum(Y**2, axis=2), np.inf)
            out[:] = Y[np.arange(len(self)), np.argmin(d2, axis=1)]
        for i in np.flatnonzero(self._lost):
            out[i] = self._solve(i, np.zeros(self.dim))[0]
        return out

    def coord_extremes(self):
        """:meth:`BodyBatch.coord_extremes`, computed once; the arrays are
        read-only."""
        if self._extremes is None:
            N, m = len(self), self.dim
            extremes = (np.full((N, m), -math.inf), np.full((N, m), math.inf),
                        np.full((N, m, m), math.nan), np.full((N, m, m), math.nan))
            if self._sets is not None:
                # the least-norm point of each optimal face is among the members
                Y, inside = self._origin
                norms2 = np.sum(Y**2, axis=2)
                bounded = np.broadcast_to(self._sets.bounded, (N, 2, m))
                for side, sign in enumerate((1.0, -1.0)):
                    for j in np.flatnonzero(bounded[:, side].any(axis=0)):
                        t = np.where(inside, sign * Y[:, :, j], math.inf)
                        best = np.min(t, axis=1, keepdims=True)
                        ties = inside & (t <= best + CONTAINS_TOL * np.maximum(1.0, np.abs(best)))
                        i = np.argmin(np.where(ties, norms2, math.inf), axis=1)
                        at = np.flatnonzero(bounded[:, side, j])
                        extremes[side][at, j] = Y[at, i[at], j]
                        extremes[side + 2][at, j] = Y[at, i[at]]
            for i, j, side in itertools.product(np.flatnonzero(self._lost), range(m), (0, 1)):
                w = np.zeros(m)
                w[j] = 2 * side - 1  # towards lo, then hi
                y, d = self._solve(i, np.zeros(m), w)
                extremes[side][i, j] = w[j] * math.inf if d.any() else y[j]
                extremes[side + 2][i, j] = math.nan if d.any() else y
            for a in extremes:
                a.setflags(write=False)
            self._extremes = extremes
        return self._extremes

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

    def _solve(self, i: int, z, w=None) -> tuple:
        """:func:`_nearest` on body i (its own normals), which must not be empty."""
        A = self._of(self.A, [i])[0]
        found = _nearest(A, self.B[i], z, np.zeros(self.dim) if w is None else w)
        if found is None:
            raise InfeasibleBodyError("halfspace system has no solution")
        return found


class StackedBatch(BodyBatch):
    """N rows split among batches: ``parts`` holds ``(rows, batch)`` pairs,
    row ``rows[j]`` being body j of ``batch``, with ``rows`` ascending;
    every row is in one part.  A query of some rows calls each part that
    they touch once."""

    def __init__(self, count: int, dim: int, parts):
        self.count, self.dim, self.parts = count, dim, list(parts)
        # the part that holds each row, and the row's index in that part
        self._part = np.empty(count, dtype=np.intp)
        self._local = np.empty(count, dtype=np.intp)
        for p, (rows, _) in enumerate(self.parts):
            self._part[rows], self._local[rows] = p, np.arange(rows.shape[0])

    @classmethod
    def of_rows(cls, batches, dim: int) -> "StackedBatch":
        """The batches ``batches``, their rows in order, as one batch."""
        ends = np.cumsum([0, *map(len, batches)])
        return cls(int(ends[-1]), dim, zip(map(np.arange, ends[:-1], ends[1:]), batches))

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

    def _at(self, method: str, rows, Y, out: np.ndarray, *args) -> np.ndarray:
        """``method(rows, Y, *args)`` of each part that ``rows`` touches, in
        part order, on the blocks of its rows, written into ``out`` at those
        blocks."""
        rows = np.asarray(rows)
        part = self._part[rows]
        order = np.argsort(part, kind="stable")  # each part's blocks together, in order
        cuts = np.flatnonzero(np.diff(part[order], prepend=-1))
        for at in np.split(order, cuts)[1:]:
            batch = self.parts[part[at[0]]][1]
            out[at] = getattr(batch, method)(self._local[rows[at]], Y[at], *args)
        return out

    def translate(self, C) -> "StackedBatch":
        C = np.asarray(C, dtype=float)
        parts = [(rows, batch.translate(C[rows])) for rows, batch in self.parts]
        return StackedBatch(self.count, self.dim, parts)

    def project_rows(self, rows, Z) -> np.ndarray:
        Z = np.asarray(Z, dtype=float)
        return self._at("project_rows", rows, Z, np.empty_like(Z))

    def contains(self, rows, Y, tol: float = CONTAINS_TOL) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        return self._at("contains", rows, Y, np.empty(Y.shape[:2], dtype=bool), tol)

    def boundary_margin(self, rows, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        return self._at("boundary_margin", rows, Y, np.empty(Y.shape[:2]))

    def coord_extremes(self):
        m = self.dim
        return self._gather("coord_extremes", (m,), (m,), (m, m), (m, m))

    def sample_bounds(self):
        return self._gather("sample_bounds", (self.dim,), (self.dim,))
