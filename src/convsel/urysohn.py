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
since evaluation then never re-enters the extended function.  Over box
components it is a nested coordinate search per box.  Every field here is
a batch rule; the Tietze batch covers clouds and boxes alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, OverlapError
from .fields import Domain, ScalarField, TAG_CONTINUOUS, constant_field

#: Distances at or below this snap to zero count as membership.
MEMBERSHIP_SNAP = 1e-12

#: Nested coordinate search stops when every cell side is below this.
SEARCH_TOL = 1e-10

#: What evaluating at a point within the snap of A but of no cloud point raises.
_SNAP_MISS = "a snapped point has no cloud point within the snap"

#: Element budget, in floats, of each (rows, cloud, n) temporary built by
#: the batched distance and extension rules; small enough to stay in cache.
_FLOAT_BUDGET = 8192


def _row_blocks(N: int, cloud: np.ndarray):
    """Row slices of an (N, n) query array, each small enough that its
    differences against the (nonempty) ``cloud`` fit the element budget."""
    step = max(1, _FLOAT_BUDGET // cloud.size)
    for s in range(0, N, step):
        yield slice(s, s + step)


def _snap_to_cloud(cloud: np.ndarray, baked: np.ndarray, P: np.ndarray, near, out) -> np.ndarray:
    """Write into ``out`` the baked value of the nearest point of the
    (nonempty) ``cloud`` to each row of ``P`` indexed by ``near``; return
    the indices among ``near`` with no cloud point within the snap."""
    hit = np.empty(near.size, dtype=bool)
    for rows in _row_blocks(near.size, cloud):
        idx = near[rows]
        gaps = np.linalg.norm(cloud[None, :, :] - P[idx, None, :], axis=2)
        k = np.argmin(gaps, axis=1)
        hit[rows] = gaps[np.arange(idx.size), k] <= MEMBERSHIP_SNAP
        out[idx] = baked[k]
    return near[~hit]


@dataclass(frozen=True)
class ClosedSet:
    """A finite union of closed boxes and points, possibly empty."""

    ambient_dim: int
    boxes: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        n = self.ambient_dim
        if n < 1:
            raise DimensionMismatchError("ambient_dim must be >= 1")
        boxes = []
        for lo, hi in self.boxes:
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            if lo.shape != (n,) or hi.shape != (n,):
                raise DimensionMismatchError("box bounds must have shape (n,)")
            if np.any(lo > hi) or not (
                np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
            ):
                raise ValueError("box bounds must be finite with lo <= hi")
            boxes.append((lo, hi))
        pts = []
        for p in self.points:
            p = np.asarray(p, dtype=float)
            if p.shape != (n,):
                raise DimensionMismatchError("point must have shape (n,)")
            pts.append(p)
        object.__setattr__(self, "boxes", tuple(boxes))
        object.__setattr__(self, "points", tuple(pts))
        cloud = np.vstack(pts) if pts else np.empty((0, n))
        object.__setattr__(self, "_cloud", cloud)

    @property
    def is_empty(self) -> bool:
        return not self.boxes and not self.points

    @staticmethod
    def from_cloud(pts) -> "ClosedSet":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return ClosedSet(pts.shape[1], points=tuple(pts))

    def contains(self, x, tol: float = MEMBERSHIP_SNAP) -> bool:
        if self.is_empty:
            return False
        return dist_to_set(self, x) <= tol

    def dist_many(self, X: np.ndarray) -> np.ndarray:
        """Exact Euclidean distance from each row of ``X`` (shape (N, n))."""
        if self.is_empty:
            raise EmptySetError("distance to the empty set")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.ambient_dim:
            raise DimensionMismatchError(
                f"point has dim {X.shape[1]}, set has dim {self.ambient_dim}"
            )
        best = np.full(X.shape[0], math.inf)
        for lo, hi in self.boxes:
            d = np.linalg.norm(np.clip(X, lo, hi) - X, axis=1)
            np.minimum(best, d, out=best)
        cloud = self._cloud
        if cloud.shape[0]:
            for rows in _row_blocks(X.shape[0], cloud):
                blk = X[rows]
                d2 = ((blk[:, None, :] - cloud[None, :, :]) ** 2).sum(axis=2)
                np.minimum(best[rows], np.sqrt(d2.min(axis=1)), out=best[rows])
        return best


def dist_to_set(A: ClosedSet, x) -> float:
    return float(A.dist_many(np.asarray(x, dtype=float).reshape(1, -1))[0])


def dist_field(A: ClosedSet, domain: Domain | None = None, name: str = "") -> ScalarField:
    """The (1-Lipschitz, hence continuous) distance-to-A field."""
    if A.is_empty:
        raise EmptySetError("distance field of the empty set")
    return ScalarField(domain, batch=A.dist_many, tag=TAG_CONTINUOUS, name=name or "dist")


def set_distance(A: ClosedSet, B: ClosedSet) -> float:
    """Exact distance between two box/point unions (0 iff they meet)."""
    if A.is_empty or B.is_empty:
        raise EmptySetError("distance between sets needs both nonempty")
    best = math.inf
    comps_a = [("box", lo, hi) for lo, hi in A.boxes] + [
        ("pt", p, p) for p in A.points
    ]
    comps_b = [("box", lo, hi) for lo, hi in B.boxes] + [
        ("pt", p, p) for p in B.points
    ]
    for _, alo, ahi in comps_a:
        for _, blo, bhi in comps_b:
            gap = np.maximum(0.0, np.maximum(alo - bhi, blo - ahi))
            best = min(best, float(np.linalg.norm(gap)))
    return best


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


def _nested_min(fun, lo: np.ndarray, hi: np.ndarray, tol: float = SEARCH_TOL) -> float:
    """Minimize ``fun`` over a box by repeated lattice refinement."""
    n = lo.size
    first = 33 if n == 1 else 11 if n == 2 else 5
    later = 9 if n <= 2 else 5
    box_lo, box_hi = lo.astype(float).copy(), hi.astype(float).copy()
    cur_lo, cur_hi = box_lo.copy(), box_hi.copy()
    best = math.inf
    width = cur_hi - cur_lo
    pts_per_axis = first
    for _ in range(200):
        axes = [
            np.linspace(cur_lo[a], cur_hi[a], pts_per_axis)
            if cur_hi[a] > cur_lo[a]
            else np.array([cur_lo[a]])
            for a in range(n)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        lattice = np.column_stack([m.reshape(-1) for m in mesh])
        vals = np.array([fun(a) for a in lattice])
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        if float(np.max(width, initial=0.0)) < tol:
            break
        cell = width / max(pts_per_axis - 1, 1)
        center = lattice[k]
        cur_lo = np.maximum(box_lo, center - cell)
        cur_hi = np.minimum(box_hi, center + cell)
        width = cur_hi - cur_lo
        pts_per_axis = later
    return best


def _box_extremes(f, lo, hi) -> tuple[float, float]:
    mn = _nested_min(lambda a: float(f(a)), lo, hi)
    mx = -_nested_min(lambda a: -float(f(a)), lo, hi)
    return mn, mx


def tietze_extend(
    f,
    A: ClosedSet,
    X: Domain | None = None,
    lo: float | None = None,
    hi: float | None = None,
    name: str = "",
    values=None,
) -> ScalarField:
    """Continuous extension of ``f`` from A to everything, range [lo, hi].

    ``f`` must be continuous and bounded on A.  Bounds are taken from the
    data when not supplied: exact over point components, lattice-searched
    over boxes (prefer passing explicit bounds when A has boxes and ``f``
    peaks off-lattice; the formula's range stays inside [lo, hi] either
    way, only tightness is at stake).  Values at A's points are baked
    here, so evaluating the extension never calls ``f`` on point
    components again; a caller that already holds them passes them, in
    the order of A's points, as ``values``.  Over a finite cloud with
    ``values`` given, ``f`` is not read at all and may be None; a point
    that snaps to the cloud without a cloud point within the snap then
    raises the batch rule's ``ValueError``.

    The batch rule makes one distance query per batch and takes the
    ratios to the cloud in blocks of the element budget; over box
    components it adds each row's nested coordinate search, and a row
    within the snap of a box but of no cloud point reads ``f``.
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
        baked = np.array([float(f(p)) for p in cloud])
    else:
        baked = np.empty(0)
    if baked.size and not np.all(np.isfinite(baked)):
        raise ValueError("tietze_extend needs finite values; compress first")
    data_lo = float(baked.min()) if baked.size else math.inf
    data_hi = float(baked.max()) if baked.size else -math.inf
    for blo, bhi in A.boxes:
        mn, mx = _box_extremes(f, blo, bhi)
        if not (math.isfinite(mn) and math.isfinite(mx)):
            raise ValueError("tietze_extend needs finite values; compress first")
        data_lo, data_hi = min(data_lo, mn), max(data_hi, mx)
    lo = data_lo if lo is None else float(lo)
    hi = data_hi if hi is None else float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"need finite lo <= hi, got [{lo}, {hi}]")
    if hi - lo <= 0:
        if not np.any(baked.view(np.uint64) != np.float64(lo).view(np.uint64)):
            return constant_field(X, lo, name=name or "tietze")

        def signed(P):  # one value, but the cloud keeps the signs of its zeros
            out = np.full(P.shape[0], lo)
            near = np.flatnonzero(A.dist_many(P) <= MEMBERSHIP_SNAP)
            out[_snap_to_cloud(cloud, baked, P, near, out)] = lo
            return out

        return ScalarField(X, batch=signed, tag=TAG_CONTINUOUS, name=name or "tietze")
    span = hi - lo
    scaled = 1.0 + np.clip((baked - lo) / span, 0.0, 1.0) if baked.size else baked
    boxes = A.boxes

    def batch(P):
        d = A.dist_many(P)
        out = np.empty(P.shape[0])
        near = np.flatnonzero(d <= MEMBERSHIP_SNAP)
        far = np.flatnonzero(d > MEMBERSHIP_SNAP)
        best = np.full(far.size, math.inf)  # the infimum of the formula
        missed = near
        if cloud.shape[0]:
            missed = _snap_to_cloud(cloud, baked, P, near, out)
            for rows in _row_blocks(far.size, cloud):
                idx = far[rows]
                ratios = np.linalg.norm(cloud[None, :, :] - P[idx, None, :], axis=2) / d[idx, None]
                best[rows] = np.min(scaled + ratios, axis=1)
        for i in missed:
            if f is None:
                raise ValueError(_SNAP_MISS)
            out[i] = float(f(P[i]))
        for blo, bhi in boxes:
            for j, i in enumerate(far):
                x, di = P[i], float(d[i])
                g = lambda a: 1.0 + min(max((float(f(a)) - lo) / span, 0.0), 1.0) + float(
                    np.linalg.norm(x - a)
                ) / di
                best[j] = min(best[j], _nested_min(g, blo, bhi))
        F = np.minimum(np.maximum(best - 1.0, 1.0), 2.0)
        out[far] = lo + (F - 1.0) * span
        return out

    return ScalarField(X, batch=batch, tag=TAG_CONTINUOUS, name=name or "tietze")
