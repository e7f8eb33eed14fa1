"""Distance functions, two-set separators, and a bounded Tietze operator.

The extension operator uses Hausdorff's metric formula: rescale the data
affinely into [1, 2] as f~, put

    F(x) = inf_{a in A} [ f~(a) + |x - a| / dist(x, A) ] - 1    (x not in A)

and F = f~ on A, then rescale back.  Every term of the infimum is at
least 2 (the ratio is >= 1) and the nearest-point term is at most
f~(a*) + 1, so F lands in [1, 2] and the extension respects the original
bounds no matter how crude they are.  Over point components the infimum
is an exact finite minimum with the data values baked at construction
time -- important for pipelines that extend, subtract and extend again,
since evaluation then never re-enters the extended function.  Over each
box it is a nested coordinate search, for every row at once.  Every
field here is a batch rule; the Tietze batch covers clouds and boxes
alike.

Over the cloud, the distance, the snap to the nearest point and the
infimum come from one pass of an exact pruned kernel
(``ClosedSet._scan``).  The cloud is sorted once on its widest axis.  A
query x with sort key q has two sort-neighbours; each, a_j, gives
g_j = |x - a_j| >= dist(x, cloud).  Only the points whose keys lie in a
slab [q - r, q + r] are paired with x, with r = min_j g_j for the
distance and r = min_j f~(a_j) g_j for the infimum: a point a can beat
a_j's term only if 1 + |x - a|/d <= f~(a_j) + g_j/d, and d <= g_j then
gives |x - a| <= f~(a_j) g_j.  The pruning is exact because a point off
the slab has |x - a| >= |q - key(a)| > r by more than the rounding of
either side: r is widened by a relative 2^-20, far above the few ulps of
the distance expression, and by an absolute 2^-500, below which a square
may underflow; rounding q - r and q + r is monotone, so it keeps every
key of the exact slab.  So a pruned point is strictly farther than a_j,
and its term strictly above a_j's.  Every pair that can attain a minimum, ties included, is
computed by the one expression of a full scan (:func:`_gaps`, then the
ratio and the sum), so the results are a full scan's bits, and a tie at
the gap goes to the lowest cloud index, as ``argmin``'s does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, OverlapError
from .fields import Domain, ScalarField, TAG_CONTINUOUS, _boxes_and_points, constant_field
from .fields import pymax, pymin, row_blocks
from .geometry import row_norms

#: Distances at or below this snap to zero count as membership.
MEMBERSHIP_SNAP = 1e-12

#: Nested coordinate search stops when every cell side is below this.
SEARCH_TOL = 1e-10

#: A slab's half-width is widened by this factor, past every rounding
#: error of the distance expression, and by this absolute margin, past
#: the squares that underflow.
_WIDEN = 1.0 + 2.0**-20
_SLAB_ABS = 2.0**-500


def _gaps(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``|p - c|`` over the last axis, for each pair of rows of ``P`` and
    ``C``: the one distance expression every rule here evaluates."""
    return np.sqrt(np.add.reduce(np.square(P - C), -1))


@dataclass(frozen=True)
class ClosedSet:
    """A finite union of closed boxes and points, possibly empty.

    The points form the cloud, one array of shape (k, n), kept also sorted
    on the axis where it is widest (``_order``, with the sorted cloud and
    its keys) for the slab search of :meth:`_scan`.
    """

    ambient_dim: int
    boxes: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        boxes, cloud = _boxes_and_points(self.ambient_dim, self.boxes, self.points)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "points", cloud)
        k = len(cloud)
        axis = int(np.argmax(np.ptp(cloud, axis=0))) if k else 0
        order = np.argsort(cloud[:, axis], kind="stable")
        # the sorted positions of the two points about each insertion point
        held = np.concatenate(([0], np.arange(k), [k - 1]))
        for attr, value in (("_cloud", cloud), ("_axis", axis), ("_order", order),
                            ("_sorted", cloud[order]), ("_keys", cloud[order, axis]),
                            ("_neighbours", np.column_stack((held[:-1], held[1:])))):
            object.__setattr__(self, attr, value)

    def _scan(self, X, ranked=None) -> tuple[np.ndarray, ...]:
        """One slab pass over the rows of ``X`` (shape (N, n)).

        Returns ``(d, gap, k, least)``: the distance to the set, the gap
        to the cloud (inf without one), the index of the first cloud point
        at that gap wherever it is within the snap, and, given ``ranked``
        (a value in [1, 2] for each point of the sorted cloud), the
        infimum of ``ranked + |x - a|/d`` over the cloud wherever d is
        beyond the snap (None without ``ranked``); k and the infimum mean
        nothing on the other rows.  The pairs are taken in the row blocks
        of :func:`~convsel.fields.row_blocks`, at n floats a pair.
        """
        if self.is_empty:
            raise EmptySetError("distance to the empty set")
        X = np.asarray(X, dtype=float)
        if X.ndim < 2:
            X = X.reshape(1, -1)
        if X.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has dim {X.shape[1]}, set has dim {self.ambient_dim}"
            )
        N, keys, boxd = X.shape[0], self._keys, None
        for lo, hi in self.boxes:
            b = np.linalg.norm(np.clip(X, lo, hi) - X, axis=1)
            boxd = b if boxd is None else np.minimum(boxd, b)
        if not (keys.size and N):
            gap = np.full(N, math.inf)
            return gap if boxd is None else boxd, gap, np.zeros(N, dtype=np.intp), gap.copy()
        # the sort-neighbours a_j bound the slab's half-width: by g_j, or with
        # ``ranked`` by ranked_j * g_j (see the module docstring)
        q = X[:, self._axis]
        nb = self._neighbours.take(keys.searchsorted(q), 0)
        g = _gaps(X[:, None, :], self._sorted.take(nb, 0))
        if ranked is not None:
            g *= ranked.take(nb)
        r = np.minimum(g[:, 0], g[:, 1]) * _WIDEN + _SLAB_ABS
        # rounding is monotone, so q - r and q + r keep every key of the exact
        # slab; a NaN end takes the whole cloud (fmax sends it to -inf)
        start = keys.searchsorted(np.fmax(q - r, -math.inf))
        counts = keys.searchsorted(q + r, "right") - start
        ends = counts.cumsum()
        parts = []
        for block in row_blocks(N, counts * X.shape[1]):
            c, end = counts[block], ends[block]
            seg = end - c
            a = int(seg[0])
            if a:
                seg -= a
            row = np.arange(c.size).repeat(c)
            pos = np.arange(int(end[-1]) - a) + (start[block] - seg).take(row)
            g = _gaps(X[block].take(row, 0), self._sorted.take(pos, 0))
            gap = np.minimum.reduceat(g, seg)
            d = gap if boxd is None else np.minimum(boxd[block], gap)
            k = np.zeros(c.size, dtype=np.intp)
            if np.fmin.reduce(gap) <= MEMBERSHIP_SNAP:  # the first point at the gap, as argmin
                ties = self._order.take(pos)
                ties[g != gap.take(row)] = keys.size
                k = np.minimum.reduceat(ties, seg)
            least = None if ranked is None else gap  # a stand-in, unless a row is off the snap
            if least is not None and np.fmax.reduce(d) > MEMBERSHIP_SNAP:
                # rows on the snap divide by the snap, which no finite gap overflows
                div = np.maximum(d, MEMBERSHIP_SNAP).take(row)
                least = np.minimum.reduceat(ranked.take(pos) + g / div, seg)
            parts.append((d, gap, k, least))
        if len(parts) == 1:
            return parts[0]
        return tuple(None if a[0] is None else np.concatenate(a) for a in zip(*parts))

    @property
    def is_empty(self) -> bool:
        return not self.boxes and not len(self.points)

    @staticmethod
    def from_cloud(pts) -> "ClosedSet":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return ClosedSet(pts.shape[1], points=pts)

    def contains(self, x, tol: float = MEMBERSHIP_SNAP) -> bool:
        return not self.is_empty and dist_to_set(self, x) <= tol

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        """Exact Euclidean distance from each row of ``X`` (shape (N, n))."""
        return self._scan(X)[0]


def dist_to_set(A: ClosedSet, x) -> float:
    return float(A.dist_many(np.asarray(x, dtype=float).reshape(1, -1))[0])


def dist_field(A: ClosedSet, domain: Domain | None = None, name: str = "") -> ScalarField:
    """The (1-Lipschitz, hence continuous) distance-to-A field."""
    if A.is_empty:
        raise EmptySetError("distance field of the empty set")
    return ScalarField(domain, batch=A.dist_many, tag=TAG_CONTINUOUS, name=name or "dist")


def set_distance(A: ClosedSet, B: ClosedSet) -> float:
    """Exact distance between two box/point unions (0 iff they meet): the
    least norm of the gap ``max(0, alo - bhi, blo - ahi)`` over every pair
    of components, taken at once."""
    if A.is_empty or B.is_empty:
        raise EmptySetError("distance between sets needs both nonempty")
    (alo, ahi), (blo, bhi) = _components(A), _components(B)
    gap = np.maximum(0.0, np.maximum(alo[:, None] - bhi, blo - ahi[:, None]))
    return float(np.min(row_norms(gap.reshape(-1, A.ambient_dim))))


def _components(S: ClosedSet) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, shape (k, n): the boxes of ``S``, then its points as
    boxes of zero width."""
    boxes = np.array(S.boxes).reshape(-1, 2, S.ambient_dim)
    return np.vstack([boxes[:, 0], S.points]), np.vstack([boxes[:, 1], S.points])


def separator(
    A1: ClosedSet, A2: ClosedSet, domain: Domain | None = None
) -> ScalarField:
    """Continuous field into [0,1], exactly 0 on A1 and exactly 1 on A2.

    Built as d1/(d1+d2) from the two distance functions; the sets must be
    disjoint (checked exactly from the box/point decomposition) so the
    denominator is positive everywhere.
    """
    if A1.is_empty or A2.is_empty:
        raise EmptySetError("separator needs two nonempty sets")
    if set_distance(A1, A2) <= 0.0:
        raise OverlapError("separator sets intersect")

    def batch(X):
        d1, d2 = A1.dist_many(X), A2.dist_many(X)
        return d1 / (d1 + d2)

    return ScalarField(domain, batch=batch, tag=TAG_CONTINUOUS, name="separator")


def _nested_min(F, lo: np.ndarray, hi: np.ndarray, rows: int) -> np.ndarray:
    """The least value over the box [lo, hi] of each of ``rows`` functions,
    by lattice refinement about the first least point until every cell side
    is below ``SEARCH_TOL``, a row block at a time (its first lattice's values
    a row): ``F(live, P)`` gives the values (R, L) of the functions ``live``
    on their lattices ``P`` (R, L, n).  The axes are ``np.linspace`` rows,
    bit for bit the scalar calls; a flat cell axis takes its one point,
    repeated where another cell spans that axis, which moves neither the
    least value nor the first point at it."""
    n = lo.size
    first, later = (33 if n == 1 else 11 if n == 2 else 5), (9 if n <= 2 else 5)
    best = np.full(rows, math.inf)
    for block in row_blocks(rows, first**n):
        live, pts = np.arange(rows)[block], first
        cur_lo, cur_hi = np.tile(lo, (live.size, 1)), np.tile(hi, (live.size, 1))
        for _ in range(200):
            if not live.size:
                break
            R, width, wide = live.size, cur_hi - cur_lo, cur_hi > cur_lo
            # a zero step anywhere would change every row's linspace
            axes = np.linspace(np.where(wide, cur_lo, 0.0), np.where(wide, cur_hi, 1.0), pts)
            axes = np.where(wide, axes, cur_lo)  # (pts, R, n)
            at = np.indices(np.where(wide.any(axis=0), pts, 1)).reshape(n, -1).T
            lattice = axes[at, np.arange(R)[:, None, None], np.arange(n)]  # in meshgrid's order
            vals = F(live, lattice)
            k = np.argmin(vals, axis=1)
            best[live] = pymin(best[live], vals[np.arange(R), k])
            cell, center = width / max(pts - 1, 1), lattice[np.arange(R), k]
            going = ~(np.max(width, axis=1) < SEARCH_TOL)
            live, cur_lo, cur_hi = (live[going], np.maximum(lo, center - cell)[going],
                                    np.minimum(hi, center + cell)[going])
            pts = later
    return best


def _read(f: ScalarField, L: np.ndarray) -> np.ndarray:
    """``f`` on a stack of lattices L (R, L, n), as (R, L), in one batch."""
    return f.many(L.reshape(-1, L.shape[2])).reshape(L.shape[:2])


def tietze_extend(
    f,
    A: ClosedSet,
    X: Domain | None = None,
    lo: float | None = None,
    hi: float | None = None,
    name: str = "",
    values=None,
) -> ScalarField:
    """Continuous extension of the :class:`ScalarField` ``f`` from A to
    everything, range [lo, hi].

    ``f`` must be continuous and bounded on A.  Bounds are taken from the
    data when not supplied: exact over point components, lattice-searched
    over boxes (prefer passing explicit bounds when A has boxes and ``f``
    peaks off-lattice; the formula's range stays inside [lo, hi] either
    way, only tightness is at stake).  Values at A's points are baked
    here, so evaluating the extension never reads ``f`` on point
    components again; a caller that already holds them passes them, in
    the order of A's points, as ``values``.  Over a finite cloud with
    ``values`` given, ``f`` is not read at all and may be None.

    The batch rule makes one slab pass over the cloud per batch, which
    gives the distance, the snap and the infimum over the cloud at once
    (see the module docstring).  Over each box it runs the nested
    coordinate search of every row off the snap at once, one ``f.many``
    per step (:func:`_nested_min`), and reads ``f`` at the rows within the
    snap of a box but of no cloud point in one ``f.many``.
    """
    if A.is_empty:
        raise EmptySetError("cannot extend from the empty set")
    if A.boxes and f is None:
        raise ValueError("tietze_extend over box components needs f")
    cloud = A._cloud
    if values is not None:
        baked = np.array(values, dtype=float).reshape(-1)
        if baked.shape != (cloud.shape[0],):
            raise DimensionMismatchError(
                f"{baked.shape[0]} values for {cloud.shape[0]} cloud points"
            )
    elif cloud.shape[0]:
        baked = f.many(cloud)
    else:
        baked = np.empty(0)
    if baked.size and not np.all(np.isfinite(baked)):
        raise ValueError("tietze_extend needs finite values; compress first")
    data_lo = float(baked.min()) if baked.size else math.inf
    data_hi = float(baked.max()) if baked.size else -math.inf
    sign = np.array([1.0, -1.0])  # the least of f, then of -f
    for blo, bhi in A.boxes:
        mn, neg = _nested_min(lambda live, L: sign[live, None] * _read(f, L), blo, bhi, 2)
        if not (math.isfinite(mn) and math.isfinite(neg)):
            raise ValueError("tietze_extend needs finite values; compress first")
        data_lo, data_hi = min(data_lo, float(mn)), max(data_hi, -float(neg))
    lo = data_lo if lo is None else float(lo)
    hi = data_hi if hi is None else float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"need finite lo <= hi, got [{lo}, {hi}]")
    if hi - lo <= 0:
        if not np.any(baked.view(np.uint64) != np.float64(lo).view(np.uint64)):
            return constant_field(X, lo, name=name or "tietze")

        def signed(P):  # one value, but the cloud keeps the signs of its zeros
            out = np.full(P.shape[0], lo)
            _, gap, k, _ = A._scan(P)
            hit = gap <= MEMBERSHIP_SNAP
            out[hit] = baked[k[hit]]
            return out

        return ScalarField(X, batch=signed, tag=TAG_CONTINUOUS, name=name or "tietze")
    span = hi - lo
    scaled = 1.0 + np.clip((baked - lo) / span, 0.0, 1.0) if baked.size else baked
    ranked = scaled[A._order]  # in the order of the sorted cloud
    boxes = A.boxes

    def batch(P):
        d, gap, k, best = A._scan(P, ranked)  # best: the infimum of the formula
        hit = gap <= MEMBERSHIP_SNAP
        # off the boxes d is the gap, and every row on the snap hits the cloud
        missed = ((d <= MEMBERSHIP_SNAP) > hit).nonzero()[0] if boxes else ()
        held = f.many(P[missed]) if len(missed) else None
        off = (d > MEMBERSHIP_SNAP).nonzero()[0] if boxes else ()
        if len(off):
            x, dx = P[off], d[off, None]

            def term(live, L):  # Hausdorff's term at the box points L of rows x
                t = pymin(pymax((_read(f, L) - lo) / span, 0.0), 1.0)
                gaps = row_norms((x[live, None] - L).reshape(-1, L.shape[2]))
                return 1.0 + t + gaps.reshape(L.shape[:2]) / dx[live]

            for blo, bhi in boxes:
                best[off] = pymin(best[off], _nested_min(term, blo, bhi, len(off)))
        out = lo + (np.minimum(np.maximum(best - 1.0, 1.0), 2.0) - 1.0) * span
        if baked.size:
            np.putmask(out, hit, baked.take(k))
        if held is not None:
            out[missed] = held
        return out

    return ScalarField(X, batch=batch, tag=TAG_CONTINUOUS, name=name or "tietze")
