"""Scalar fields over box-and-point domains, with semicontinuity audits.

Values live on the extended real line, represented as Python floats with
``math.inf`` for the two endpoints.  Fields carry a semicontinuity tag that
is never proven symbolically; it is audited empirically on grids.  The
audit convention throughout the package: a suspicious jump to a single
neighbouring grid cell is tolerated when the next cell in the same
direction recovers, because an exceptional point adjacent to the probe is
exactly what semicontinuity permits in the limit.  Two consecutive bad
cells are treated as a genuine violation at the current resolution.
:func:`confirmed_edges` is the one implementation of that rule; every
grid audit in the package calls it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import KW_ONLY, dataclass, field as dc_field
from itertools import repeat
from typing import Callable

import numpy as np

from .errors import (
    ConvselError,
    DimensionMismatchError,
    IndeterminateSumError,
    TagError,
)

TAG_UPPER = "upper"
TAG_LOWER = "lower"
TAG_CONTINUOUS = "continuous"
TAG_UNKNOWN = "unknown"
_TAGS = (TAG_UPPER, TAG_LOWER, TAG_CONTINUOUS, TAG_UNKNOWN)

#: Default seed for every pseudo-random probe in the package.
DEFAULT_SEED = 0x5E1EC7

#: Compressed values are clamped this far away from +-1 before decompression.
STRICTNESS_MARGIN = 1e-9

_COMPRESS_DPS = 50


# ---------------------------------------------------------------------------
# compression of the extended line onto [-1, 1]


def compress(v):
    """Squash an extended real onto [-1, 1] via v / sqrt(1 + v^2].

    +inf maps to exactly 1 and -inf to exactly -1; the map is strictly
    increasing.  The result is an arbitrary-precision real (an ``mpmath``
    value, usable in ordinary arithmetic and comparisons; cast with
    ``float`` when a machine double is wanted).  Working at extended
    precision is what keeps ``decompress(compress(v))`` faithful for large
    v, where double rounding of values near 1 would destroy the input.
    """
    import mpmath  # only these two functions need it, so import convsel does not

    v = _as_extended(v)
    if math.isinf(float(v)):
        return mpmath.mpf(1 if float(v) > 0 else -1)
    with mpmath.workdps(_COMPRESS_DPS):
        x = mpmath.mpf(v)
        return x / mpmath.sqrt(1 + x * x)


def decompress(w):
    """Inverse of :func:`compress` on the open interval (-1, 1).

    Raises ``ValueError`` at or beyond the endpoints: the preimages of
    +-1 are the infinities, which are not representable targets here.
    """
    import mpmath

    with mpmath.workdps(_COMPRESS_DPS):
        x = mpmath.mpf(w)
        if abs(x) >= 1:
            raise ValueError(f"decompress needs |w| < 1, got {float(x)!r}")
        return x / mpmath.sqrt((1 - x) * (1 + x))


def _as_extended(v) -> float:
    out = float(v)
    if math.isnan(out):
        raise ValueError("NaN is not an extended real")
    return out


def squash(v):
    """Double-precision fast path of :func:`compress`, for a float or an
    array: a scalar gives a float, an array an array of its shape.  The
    denominator is ``math.hypot`` per value: ``np.hypot`` may differ from it
    in the last bit."""
    a = np.asarray(v, dtype=float)
    if np.isnan(a).any():
        raise ValueError("NaN is not an extended real")
    flat = a.reshape(-1)
    with np.errstate(invalid="ignore"):  # inf / inf, replaced below
        w = flat / np.fromiter(map(math.hypot, repeat(1.0), flat.tolist()), float, flat.size)
    inf = np.isinf(flat)
    w[inf] = np.sign(flat[inf])
    return float(w[0]) if a.ndim == 0 else w.reshape(a.shape)


def unsquash(w):
    """Double-precision fast path of :func:`decompress`, for a float or an
    array, as :func:`squash`."""
    a = np.asarray(w, dtype=float)
    bad = (a >= 1.0) | (a <= -1.0)
    if bad.any():
        raise ValueError(f"unsquash needs |w| < 1, got {float(a[bad].flat[0])!r}")
    out = a / np.sqrt((1.0 - a) * (1.0 + a))
    return float(out) if a.ndim == 0 else out


# ---------------------------------------------------------------------------
# domains and grids


def _boxes_and_points(n: int, boxes, points) -> tuple[tuple, np.ndarray]:
    """``(boxes, points)``: closed boxes ``(lo, hi)`` in R^n as float
    arrays, and the points stacked, shape (k, n).  Raises unless every
    bound and point has shape (n,) and is finite, with ``lo <= hi``.  The
    points are stacked by one call and checked on the stack; only a stack
    of another shape is searched, point by point, for the first point at
    fault."""
    if n < 1:
        raise DimensionMismatchError("ambient_dim must be >= 1")
    out = []
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != (n,) or hi.shape != (n,):
            raise DimensionMismatchError("box bounds must have shape (n,)")
        if np.any(lo > hi) or not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite with lo <= hi")
        out.append((lo, hi))
    try:
        cloud = np.array(points, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers: searched below
        cloud = None
    if cloud is None or cloud.ndim != 2 or cloud.shape[1] != n:
        pts = []
        for p in points:
            p = np.asarray(p, dtype=float)
            if p.shape != (n,):
                raise DimensionMismatchError("point must have shape (n,)")
            pts.append(p)
        cloud = np.vstack(pts) if pts else np.empty((0, n))
    if not np.isfinite(cloud).all():
        raise ValueError("points must be finite")
    return tuple(out), cloud


@dataclass(frozen=True)
class Domain:
    """A finite union of closed axis-aligned boxes and isolated points;
    the points are kept as one array, shape (k, n)."""

    ambient_dim: int
    boxes: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        boxes, points = _boxes_and_points(self.ambient_dim, self.boxes, self.points)
        if not boxes and not len(points):
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "points", points)

    def contains(self, x, tol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        if any(np.all((x >= lo - tol) & (x <= hi + tol)) for lo, hi in self.boxes):
            return True
        return bool(np.any(np.max(np.abs(x - self.points), axis=1, initial=0.0) <= tol))


def default_per_axis(ambient_dim: int) -> int:
    """Grid points per axis when none is given: 129 in 1D, 17 otherwise."""
    return 129 if ambient_dim == 1 else 17


def grid_size(domain: Domain, per_axis: int, halvings: int) -> int:
    """Points of ``Grid(domain, per_axis)`` after ``halvings`` refinements,
    counted in Python ints without building it: per box, the product of
    ``(per_axis - 1) * 2^halvings + 1`` over its axes of nonzero width;
    then the isolated points."""
    side = (per_axis - 1) * 2**halvings + 1
    boxes = sum(side ** int(np.count_nonzero(hi > lo)) for lo, hi in domain.boxes)
    return boxes + len(domain.points)


class Grid:
    """Sample points of a domain with an axis-neighbour relation.

    Each box contributes a regular lattice (``per_axis`` points per axis of
    nonzero width); isolated points contribute themselves, with no
    neighbours.  ``directed_edges`` lists every ordered adjacent pair
    together with the index of the next point in the same direction, which
    :func:`confirmed_edges` uses for the two-cell confirmation rule; the
    list is built at its first call, so a grid that is only evaluated on
    never builds it.
    """

    def __init__(self, domain: Domain, per_axis: int):
        if per_axis < 1:
            raise ValueError("per_axis must be >= 1")
        self.domain = domain
        self.per_axis = per_axis
        n = domain.ambient_dim
        blocks = []
        pts = []
        start = 0
        for lo, hi in domain.boxes:
            axes = []
            for a in range(n):
                if hi[a] > lo[a]:
                    axes.append(np.linspace(lo[a], hi[a], per_axis))
                else:
                    axes.append(np.array([lo[a]]))
            shape = tuple(len(ax) for ax in axes)
            mesh = np.meshgrid(*axes, indexing="ij")
            block = np.column_stack([m.reshape(-1) for m in mesh])
            spacing = np.array(
                [ax[1] - ax[0] if len(ax) > 1 else 0.0 for ax in axes]
            )
            blocks.append((start, shape, spacing))
            pts.append(block)
            start += block.shape[0]
        pts.append(domain.points)
        self.points = np.vstack(pts)
        self._blocks = blocks
        self._edges = None

    def __len__(self) -> int:
        return self.points.shape[0]

    def _build_edges(self) -> tuple[np.ndarray, np.ndarray]:
        # columns: tail, head, far (next point past head; -1 if none); in each
        # box, along each axis of width > 1, the forward edges and then the
        # backward ones, each in the C order of their tails
        rows = []
        spacings = []
        for start, shape, spacing in self._blocks:
            lattice = _lattice(start, shape)
            for a, width in enumerate(shape):
                if width < 2:
                    continue
                line = np.moveaxis(lattice, a, 0)
                none = np.full_like(line[:1], -1)
                for trio in ((line[:-1], line[1:], np.concatenate([line[2:], none])),
                             (line[1:], line[:-1], np.concatenate([none, line[:-2]]))):
                    rows.append(np.moveaxis(np.stack(trio, axis=-1), 0, a).reshape(-1, 3))
                    spacings.append(np.full(rows[-1].shape[0], spacing[a]))
        if not rows:
            return np.empty((0, 3), dtype=int), np.empty(0)
        return np.vstack(rows), np.concatenate(spacings)

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, spacing): edges has columns (tail, head, far), far being
        the next point past head in the same direction, or -1; built at the
        first call from each box's index lattice (:meth:`_build_edges`)."""
        if self._edges is None:
            self._edges = self._build_edges()
        return self._edges

    def max_spacing(self) -> float:
        return max((float(np.max(s)) for _, _, s in self._blocks if s.size), default=0.0)

    def refined(self) -> "Grid":
        """Grid over the same domain with halved box spacing."""
        if self.per_axis < 2:
            return Grid(self.domain, self.per_axis)
        return Grid(self.domain, 2 * (self.per_axis - 1) + 1)

    def refined_rows(self) -> np.ndarray:
        """Each point's row in :meth:`refined`: a box of shape ``w`` has the
        fine lattice of shape ``2w - 1``, and its multi-index ``i`` goes to
        ``2i``, read by slicing that lattice at every other index (a
        zero-width axis keeps its one index 0); an isolated point goes to
        itself."""
        rows = []
        start = 0
        for _, shape, _ in self._blocks:
            fine = tuple(2 * w - 1 for w in shape)
            rows.append(_lattice(start, fine)[(slice(None, None, 2),) * len(fine)].reshape(-1))
            start += math.prod(fine)
        rows.append(start + np.arange(len(self.domain.points)))
        return np.concatenate(rows)


def _lattice(start: int, shape: tuple) -> np.ndarray:
    """The rows of a box's points in its grid, ``start`` on, laid out as
    the box's lattice: shape ``shape``, in C order."""
    return start + np.arange(math.prod(shape)).reshape(shape)


#: Element budget of every batch stage's per-row temporaries, in floats.
FLOAT_BUDGET = 8192


def row_blocks(count: int, floats, budget: int | None = None) -> list[slice]:
    """Consecutive ranges of ``count`` rows, in order, whose float counts
    sum within ``budget`` (:data:`FLOAT_BUDGET` by default): ``floats`` is
    one count for every row or one per row, and a row that alone exceeds
    the budget is a range of its own."""
    budget = FLOAT_BUDGET if budget is None else budget
    ends = np.concatenate(([0], np.cumsum(np.broadcast_to(floats, (count,)), dtype=np.int64)))
    cuts = [0]
    while cuts[-1] < count:
        last = int(ends.searchsorted(ends[cuts[-1]] + budget, "right")) - 1
        cuts.append(max(cuts[-1] + 1, last))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


# ---------------------------------------------------------------------------
# fields


#: What a batch rule may raise at a row where it fails; the outermost
#: ``many`` then searches for the first failing row.
EVAL_ERRORS = (ConvselError, ValueError, ArithmeticError)


class _Nesting(threading.local):
    #: whether a field's ``many`` call is running further up the stack
    active = False


_nesting = _Nesting()


def _outermost_many(values: Callable, X, join: Callable = np.concatenate):
    """``values(X)`` for the points ``X``, shape (N, n), equal to the rows
    of ``values`` one at a time, bit for bit.

    When ``values`` raises on more than one row, the outermost ``many`` on
    the stack searches the left half and then the right half the same way,
    and ``join`` puts the halves together: so the first row that fails
    alone raises what it raises alone, in at most 2⌈log₂ N⌉ + 1 calls when
    a batch fails just where it holds such a row.  A ``many`` called inside
    another batch (a field's, a region's or a map's) raises at once and
    leaves the search to it.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError(f"many needs points of shape (N, n), got {X.shape}")
    if _nesting.active:
        return values(X)
    _nesting.active = True
    try:
        return values(X)
    except EVAL_ERRORS:
        if X.shape[0] < 2:
            raise
    finally:
        _nesting.active = False
    half = (X.shape[0] + 1) // 2
    return join([_outermost_many(values, X[:half], join), _outermost_many(values, X[half:], join)])


class _Field:
    """What both kinds of field share: a known ``tag``, and ``_values``, a
    batch's values, of shape (N,) + ``_tail`` for N points and with no
    NaN, or it raises."""

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise TagError(f"unknown tag {self.tag!r}")

    def _values(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.batch(X), dtype=float)
        if out.shape != (X.shape[0], *self._tail):
            raise DimensionMismatchError(
                f"{self._kind} {self.name or '<anon>'} returned shape {out.shape[1:]} per"
                f" row, {out.shape} in all, for {X.shape[0]} points"
            )
        if np.isnan(out).any():
            raise ValueError(f"{self._kind} {self.name or '<anon>'} returned NaN")
        return out

    def many(self, X) -> np.ndarray:
        """Values at every row of ``X`` (shape (N, n)), shape (N,) or (N, m),
        equal to ``[self(x) for x in X]`` bit for bit; a failing batch
        raises the first failing row's error (:func:`_outermost_many`)."""
        return _outermost_many(self._values, X)


@dataclass(frozen=True)
class ScalarField(_Field):
    """A rule from domain points to extended reals, plus a claimed tag.

    ``batch`` maps an array of points, shape (N, n), to the (N,) array of
    their values; a single point is evaluated as a batch of one row.
    """

    domain: Domain | None
    _: KW_ONLY
    batch: Callable[[np.ndarray], np.ndarray] = dc_field(repr=False, compare=False)
    tag: str = TAG_UNKNOWN
    name: str = ""
    _kind, _tail = "field", ()

    def __call__(self, x) -> float:
        return float(self._values(np.asarray(x, dtype=float)[None])[0])

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return add(self, other)

    def __neg__(self) -> "ScalarField":
        return negate(self)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return add(self, negate(other))


@dataclass(frozen=True)
class VectorField(_Field):
    """An R^m-valued rule; components share one semicontinuity tag.

    ``batch`` maps an array of points, shape (N, n), to the (N, m) array
    of their values; a single point is evaluated as a batch of one row.
    """

    domain: Domain | None
    dim: int
    _: KW_ONLY
    batch: Callable[[np.ndarray], np.ndarray] = dc_field(repr=False, compare=False)
    tag: str = TAG_UNKNOWN
    name: str = ""
    _kind = "vector field"
    _tail = property(lambda self: (self.dim,))

    def __call__(self, x) -> np.ndarray:
        return self._values(np.asarray(x, dtype=float)[None])[0]


def constant_field(domain: Domain | None, value: float, name: str = "") -> ScalarField:
    row = np.array([_as_extended(value)])
    return ScalarField(
        domain, batch=lambda X: row.repeat(X.shape[0]), tag=TAG_CONTINUOUS, name=name
    )


def _sum_tag(a: str, b: str) -> str:
    if a == TAG_CONTINUOUS:
        return b
    if b == TAG_CONTINUOUS:
        return a
    if a == b and a in (TAG_UPPER, TAG_LOWER):
        return a
    raise TagError(f"cannot add fields tagged {a!r} and {b!r}")


def sum_values(va, vb):
    """``va + vb`` for floats or arrays, raising where (+inf) + (-inf)."""
    with np.errstate(invalid="ignore"):
        s = va + vb
    if np.any(np.isnan(s)):
        raise IndeterminateSumError("(+inf) + (-inf) in a field sum")
    return s


def pymin(a, b):
    """Elementwise ``min(a, b)`` as Python's ``min`` picks: ``b`` only
    where ``b < a``, so signed zeros come out as they do pointwise (numpy's
    ``minimum`` leaves the choice between equal zeros unspecified)."""
    return np.where(b < a, b, a)


def pymax(a, b):
    """Elementwise ``max(a, b)`` as Python's ``max`` picks."""
    return np.where(b > a, b, a)


def add(a: ScalarField, b: ScalarField) -> ScalarField:
    """Pointwise sum; tags must agree in direction or one side be continuous.

    The sum of two upper (resp. lower) semicontinuous functions keeps the
    tag; adding a continuous function preserves either tag.  Evaluation
    raises if the two sides contribute opposite infinities at a point.
    """
    return ScalarField(
        a.domain if a.domain is not None else b.domain,
        batch=lambda X: sum_values(a.many(X), b.many(X)),
        tag=_sum_tag(a.tag, b.tag),
    )


def negate(a: ScalarField) -> ScalarField:
    flip = {TAG_UPPER: TAG_LOWER, TAG_LOWER: TAG_UPPER}
    return ScalarField(a.domain, batch=lambda X: -a.many(X), tag=flip.get(a.tag, a.tag))


def compress_field(f: ScalarField) -> ScalarField:
    """Compose with the squash map; strictly increasing, so the tag holds."""
    return ScalarField(
        f.domain, batch=lambda X: squash(f.many(X)), tag=f.tag,
        name=f"squash({f.name})" if f.name else "",
    )


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class Violation:
    """One confirmed audit failure, anchored at a grid point; ``x``,
    ``neighbor`` and ``probe`` are kept as tuples of Python floats."""

    x: tuple
    deficit: float
    neighbor: tuple | None = None
    probe: tuple | None = None
    message: str = ""

    def __post_init__(self):
        for name in ("x", "neighbor", "probe"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, tuple(float(c) for c in v))


@dataclass(frozen=True)
class AuditReport:
    kind: str
    passed: bool
    violations: tuple = ()
    checked: int = 0
    eps: float = 0.0
    notes: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


def default_eps(grid: Grid) -> float:
    """Audit tolerance: ten grid cells of travel at slope 1."""
    return 10.0 * grid.max_spacing()


def confirmed_edges(
    grid: Grid,
    defect: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two-cell confirmation rule, swept over every directed edge.

    ``defect(tails, heads, spacings)`` gets index and length arrays for a
    batch of edges and returns their defects, shape (E,) or (E, k) for k
    probes per edge: positive where the pair violates the audited
    property.  Only edges with both ends in ``mask`` are swept.  Rows with
    a positive defect whose far point (next past the head, same direction)
    exists and lies in ``mask`` are confirmed by one more call,
    ``defect(tails, fars, 2 * spacings)``, keeping the pairs still
    positive: a single-cell defect is an exceptional point next door.

    Returns ``(tails, heads, probes, deficits)`` for the confirmed (edge,
    probe) pairs, edge-major in :meth:`Grid.directed_edges` order, with
    their first-cell defects (``probes`` is 0 for an (E,) defect).
    """
    edges, spacing = grid.directed_edges()
    mask = np.ones(len(grid), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    keep = mask[edges[:, 0]] & mask[edges[:, 1]]
    (tail, head, far), spacing = edges[keep].T, spacing[keep]
    d = _probe_columns(defect(tail, head, spacing))
    bad = d > 0
    rows = np.flatnonzero(bad.any(axis=1) & (far >= 0))
    rows = rows[mask[far[rows]]]
    if rows.size:
        bad[rows] &= _probe_columns(defect(tail[rows], far[rows], 2 * spacing[rows])) > 0
    e, p = np.nonzero(bad)
    return tail[e], head[e], p, d[e, p]


def _probe_columns(d) -> np.ndarray:
    d = np.asarray(d)
    return d[:, None] if d.ndim == 1 else d


def semicontinuity_audit(
    f: ScalarField,
    grid: Grid,
    eps: float | None = None,
    tag: str | None = None,
    mask: np.ndarray | None = None,
) -> AuditReport:
    """Check the claimed tag of ``f`` against grid-neighbour jumps.

    Lower semicontinuity forbids neighbours dropping more than ``eps``
    below the value at a point (upper: rising above), subject to the
    two-cell confirmation rule described in the module docstring.
    A field tagged ``unknown`` makes no checkable claim and passes.
    ``mask`` restricts the sweep to a subset of grid points (used for
    per-stratum continuity checks, where the claim only holds on the
    stratum); ``f`` is evaluated only there.
    """
    tag = tag or f.tag
    values = np.zeros(len(grid))
    if tag != TAG_UNKNOWN:
        inside = slice(None) if mask is None else np.asarray(mask, dtype=bool)
        values[inside] = f.many(grid.points[inside])
    return semicontinuity_audit_values(values, grid, tag, eps=eps, mask=mask)


def semicontinuity_audit_values(
    values: np.ndarray,
    grid: Grid,
    tag: str,
    eps: float | None = None,
    mask: np.ndarray | None = None,
) -> AuditReport:
    """:func:`semicontinuity_audit` for a field given by its ``values`` at
    the grid points (only those in ``mask`` are read)."""
    if eps is None:
        eps = default_eps(grid)
    if tag == TAG_UNKNOWN:
        return AuditReport(
            kind="semicontinuity:unknown",
            passed=True,
            checked=len(grid),
            eps=eps,
            notes=("no semicontinuity claim to audit",),
        )
    values = np.asarray(values, dtype=float)

    def jump(a, b):
        with np.errstate(invalid="ignore"):  # a == b covers equal infinities
            return np.where(a == b, 0.0, a - b)

    checks = []
    if tag in (TAG_LOWER, TAG_CONTINUOUS):
        checks.append(("lower", lambda t, h, _s: jump(values[t], values[h]) - eps))
    if tag in (TAG_UPPER, TAG_CONTINUOUS):
        checks.append(("upper", lambda t, h, _s: jump(values[h], values[t]) - eps))

    violations = []
    for label, defect in checks:
        tails, heads, _, deficits = confirmed_edges(grid, defect, mask=mask)
        violations.extend(
            Violation(
                x=grid.points[t],
                deficit=d,
                neighbor=grid.points[h],
                message=f"{label}-semicontinuity drop beyond eps",
            )
            for t, h, d in zip(tails, heads, deficits.tolist())
        )
    return AuditReport(
        kind=f"semicontinuity:{tag}",
        passed=not violations,
        violations=tuple(violations),
        checked=len(grid) if mask is None else int(np.sum(mask)),
        eps=eps,
    )


def grid_values(f, grid: Grid) -> np.ndarray:
    """A scalar or vector field at every grid point, evaluated at once."""
    return f.many(grid.points)


def continuity_modulus(f, grid: Grid) -> float:
    """Largest jump across any adjacent grid pair of ``f``: a scalar or
    vector field, or its values at the grid points, shape (N,) or (N, m).

    The pairs are the neighbours along each axis of each box's lattice,
    taken by ``np.diff`` on the box's block of values; a vector jump is
    the norm over the last axis.  A NaN jump anywhere gives NaN."""
    vals = np.asarray(f, dtype=float) if isinstance(f, np.ndarray) else grid_values(f, grid)
    tail = vals.shape[1:]
    jumps = []
    for start, shape, _ in grid._blocks:
        block = vals[start : start + math.prod(shape)].reshape(shape + tail)
        for axis, width in enumerate(shape):
            if width > 1:
                d = np.diff(block, axis=axis)
                jumps.append(np.linalg.norm(d.reshape(-1, *tail), axis=1) if tail else np.abs(d))
    return float(np.max([np.max(j) for j in jumps])) if jumps else 0.0


def _refined_values(f, grid: Grid, fine: Grid, vals: np.ndarray) -> np.ndarray:
    """``f`` at the points of ``fine = grid.refined()``, given its values
    ``vals`` at the points of ``grid``: a coarse point's row takes its value
    where its coordinates are bit for bit the coarse point's, and ``f`` is
    evaluated once on every other row, in grid order, in the row blocks of
    :func:`row_blocks` at one float a coordinate."""
    rows = grid.refined_rows()
    same = (fine.points[rows].view(np.int64) == grid.points.view(np.int64)).all(axis=1)
    known = np.zeros(len(fine), dtype=bool)
    known[rows[same]] = True
    out = np.empty((len(fine),) + vals.shape[1:])
    out[rows[same]] = vals[same]
    new = np.flatnonzero(~known)
    for block in row_blocks(new.size, fine.points.shape[1]):
        out[new[block]] = f.many(fine.points[new[block]])
    return out


def modulus_ratios(
    f, domain: Domain, per_axis: int, halvings: int = 2, values=None
) -> list[float | None]:
    """Modulus ratios across successive grid halvings.

    ``None`` marks a step where both moduli sit below the noise floor
    (1e-12): a locally constant field has nothing left to shrink.
    ``values`` are the values of ``f`` at ``Grid(domain, per_axis)``,
    when the caller already holds them.  Each refined grid takes the
    values of the grid before it at the points the two share, so ``f`` is
    evaluated only at the points each halving adds, in row blocks (the grids
    and values are held whole).  Refining stops at the
    first halving that adds no point (on isolated points and zero-width
    boxes), since every later grid would be the same: the list then has
    fewer than ``halvings`` ratios.
    """
    grid = Grid(domain, per_axis)
    vals = grid_values(f, grid) if values is None else np.asarray(values, dtype=float)
    mods = [continuity_modulus(vals, grid)]
    for _ in range(halvings):
        if grid_size(domain, grid.per_axis, 1) == len(grid):
            break
        fine = grid.refined()
        vals = _refined_values(f, grid, fine, vals)
        grid = fine
        mods.append(continuity_modulus(vals, grid))
    return [None if coarse <= 1e-12 and fine <= 1e-12
            else fine / coarse if coarse > 0 else math.inf
            for coarse, fine in zip(mods, mods[1:])]
