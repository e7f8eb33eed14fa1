"""Scalar fields one point at a time: a field lifted from a per-point rule,
the field operators, the per-point formulas of the distance, Tietze
and envelope fields, the distance between two sets one pair of
components at a time, and the search of a failing batch one row at a
time: the oracles that ``convsel``'s batch rules must reproduce bit for
bit."""

from __future__ import annotations

import math

import numpy as np

from convsel.errors import DimensionMismatchError, IndeterminateSumError
from convsel.fields import (
    EVAL_ERRORS,
    TAG_CONTINUOUS,
    TAG_LOWER,
    TAG_UNKNOWN,
    TAG_UPPER,
    ScalarField,
    _as_extended,
    _nesting,
    _sum_tag,
    squash,
)
from convsel.urysohn import MEMBERSHIP_SNAP, SEARCH_TOL, ClosedSet


def lift(domain, rule, tag: str = TAG_UNKNOWN, name: str = "") -> ScalarField:
    """The field of a per-point rule: its batch applies ``rule`` row by
    row, so the first row that fails raises."""

    def batch(X):
        return np.fromiter((float(rule(x)) for x in X), dtype=float, count=X.shape[0])

    return ScalarField(domain, batch=batch, tag=tag, name=name)


def outermost_many_by_rows(values, X, join=np.concatenate):
    """``fields._outermost_many`` one row at a time: ``values(X)``, or when
    that raises in the outermost ``many`` on the stack, ``values`` of each
    row alone, so the first row that fails raises what it raises alone,
    and ``join`` puts the rows back together if none does."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"many needs points of shape (N, n), got {X.shape}")
    outermost = not _nesting.active
    _nesting.active = True
    try:
        try:
            return values(X)
        except EVAL_ERRORS:
            if not (outermost and X.shape[0]):
                raise
        return join([values(X[i : i + 1]) for i in range(X.shape[0])])
    finally:
        _nesting.active = not outermost


def once_per_point(rule):
    """The per-point ``rule``, run once at each point: a value is kept
    under the point's bits and handed out again, so an oracle that reads
    a field or a region many times at one point pays for it once."""
    seen = {}

    def kept(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in seen:
            seen[key] = rule(x)
        return seen[key]

    return kept


def lift_once(f: ScalarField) -> ScalarField:
    """``f`` as a field read once at each point (:func:`once_per_point`)."""
    return lift(f.domain, once_per_point(f), tag=f.tag, name=f.name)


def constant_field(domain, value: float, name: str = "") -> ScalarField:
    v = _as_extended(value)
    return lift(domain, lambda x: v, tag=TAG_CONTINUOUS, name=name)


def add(a: ScalarField, b: ScalarField) -> ScalarField:
    """a + b, raising where the two sides are opposite infinities."""

    def rule(x):
        s = a(x) + b(x)
        if math.isnan(s):
            raise IndeterminateSumError("(+inf) + (-inf) in a field sum")
        return s

    return lift(a.domain if a.domain is not None else b.domain, rule, tag=_sum_tag(a.tag, b.tag))


def negate(a: ScalarField) -> ScalarField:
    flip = {TAG_UPPER: TAG_LOWER, TAG_LOWER: TAG_UPPER}
    return lift(a.domain, lambda x: -a(x), tag=flip.get(a.tag, a.tag))


def compress_field(f: ScalarField) -> ScalarField:
    return lift(f.domain, lambda x: squash(f(x)), tag=f.tag,
                name=f"squash({f.name})" if f.name else "")


def dist_pointwise(A: ClosedSet, x) -> float:
    """Distance from ``x`` to A, one component at a time."""
    x = np.asarray(x, dtype=float)
    best = math.inf
    for lo, hi in A.boxes:
        best = min(best, math.sqrt(float(np.sum((np.clip(x, lo, hi) - x) ** 2))))
    if len(A.points):
        cloud = np.asarray(A.points, dtype=float)
        best = min(best, math.sqrt(float(np.min(np.sum((x - cloud) ** 2, axis=1)))))
    return best


def set_distance_by_pairs(A: ClosedSet, B: ClosedSet) -> float:
    """The distance between two nonempty box/point unions, one pair of
    components at a time, a point being a box of zero width."""
    best = math.inf
    comps_a = [(lo, hi) for lo, hi in A.boxes] + [(p, p) for p in A.points]
    comps_b = [(lo, hi) for lo, hi in B.boxes] + [(p, p) for p in B.points]
    for alo, ahi in comps_a:
        for blo, bhi in comps_b:
            gap = np.maximum(0.0, np.maximum(alo - bhi, blo - ahi))
            best = min(best, float(np.linalg.norm(gap)))
    return best


def nested_min(fun, lo: np.ndarray, hi: np.ndarray, tol: float = SEARCH_TOL) -> float:
    """Minimize ``fun`` over a box by repeated lattice refinement, one
    search and one point at a time: each step reads ``fun`` at every point
    of a lattice over the current cell, then shrinks the cell to the
    lattice cells about the least point."""
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


def box_extremes(f, lo, hi) -> tuple[float, float]:
    """The least and the greatest value of ``f`` over a box, each by its own
    :func:`nested_min`."""
    mn = nested_min(lambda a: float(f(a)), lo, hi)
    mx = -nested_min(lambda a: -float(f(a)), lo, hi)
    return mn, mx


def tietze_pointwise(f, A: ClosedSet, lo=None, hi=None, values=None) -> ScalarField:
    """Hausdorff's formula for the extension of ``f`` from A, evaluated
    at one point: the values at A's points baked (or ``values``), the
    bounds those of the data unless given, the infimum over each box a
    nested coordinate search."""
    cloud = np.asarray(A.points, dtype=float).reshape(-1, A.ambient_dim)
    if values is None:
        values = [float(f(p)) for p in cloud]
    baked = np.array(values, dtype=float).reshape(-1)
    data = [*baked.tolist(), *(v for blo, bhi in A.boxes for v in box_extremes(f, blo, bhi))]
    lo = min(data) if lo is None else float(lo)
    hi = max(data) if hi is None else float(hi)
    span = hi - lo
    scaled = 1.0 + np.clip((baked - lo) / span, 0.0, 1.0)

    def rule(x):
        d = dist_pointwise(A, x)
        if d <= MEMBERSHIP_SNAP:
            if cloud.shape[0]:
                gaps = np.linalg.norm(cloud - x, axis=1)
                k = int(np.argmin(gaps))
                if gaps[k] <= MEMBERSHIP_SNAP:
                    return float(baked[k])
            if f is None:
                raise ValueError("a snapped point has no cloud point within the snap")
            return float(f(x))
        best = math.inf
        if cloud.shape[0]:
            ratios = np.linalg.norm(cloud - x, axis=1) / d
            best = float(np.min(scaled + ratios))
        for blo, bhi in A.boxes:
            g = lambda a: 1.0 + min(max((float(f(a)) - lo) / span, 0.0), 1.0) + float(
                np.linalg.norm(x - a)
            ) / d
            best = min(best, nested_min(g, blo, bhi))
        F = min(max(best - 1.0, 1.0), 2.0)
        return lo + (F - 1.0) * span

    return lift(None, rule, tag=TAG_CONTINUOUS, name="tietze")


def envelopes_pointwise(map_) -> tuple[ScalarField, ScalarField]:
    """(inf T, sup T) from ``map_.evaluate(x).coord_bounds()`` at each point
    of a pointwise map (``reference.maps_pointwise``)."""
    lsc = map_.declared_lsc
    f = lift(map_.domain, lambda x: map_.evaluate(x).coord_bounds()[0][0],
             tag=TAG_UPPER if lsc else TAG_UNKNOWN, name=f"inf({map_.name})")
    g = lift(map_.domain, lambda x: map_.evaluate(x).coord_bounds()[1][0],
             tag=TAG_LOWER if lsc else TAG_UNKNOWN, name=f"sup({map_.name})")
    return f, g


def continuity_modulus_edges(vals, grid) -> float:
    """The largest jump of ``vals`` (shape (N,) or (N, m)) over every
    directed edge of ``grid``, the norm of the difference for vectors:
    the edge-list form of ``fields.continuity_modulus``, its oracle."""
    vals = np.asarray(vals, dtype=float)
    edges, _ = grid.directed_edges()
    if edges.shape[0] == 0:
        return 0.0
    diff = vals[edges[:, 0]] - vals[edges[:, 1]]
    if diff.ndim == 1:
        return float(np.max(np.abs(diff)))
    return float(np.max(np.linalg.norm(diff, axis=1)))
