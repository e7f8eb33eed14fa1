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


def squash(v: float) -> float:
    """Double-precision fast path of :func:`compress`, for inner loops."""
    v = _as_extended(v)
    if math.isinf(v):
        return 1.0 if v > 0 else -1.0
    return v / math.hypot(1.0, v)


def unsquash(w: float) -> float:
    """Double-precision fast path of :func:`decompress`."""
    w = float(w)
    if abs(w) >= 1.0:
        raise ValueError(f"unsquash needs |w| < 1, got {w!r}")
    return w / math.sqrt((1.0 - w) * (1.0 + w))


# ---------------------------------------------------------------------------
# domains and grids


@dataclass(frozen=True)
class Domain:
    """A finite union of closed axis-aligned boxes and isolated points."""

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
            if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
                raise ValueError("domain boxes must be bounded")
            if np.any(lo > hi):
                raise ValueError("box has lo > hi")
            boxes.append((lo, hi))
        pts = []
        for p in self.points:
            p = np.asarray(p, dtype=float)
            if p.shape != (n,):
                raise DimensionMismatchError("point must have shape (n,)")
            if not np.all(np.isfinite(p)):
                raise ValueError("domain points must be finite")
            pts.append(p)
        if not boxes and not pts:
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "boxes", tuple(boxes))
        object.__setattr__(self, "points", tuple(pts))

    def contains(self, x, tol: float = 1e-12) -> bool:
        x = np.asarray(x, dtype=float)
        for lo, hi in self.boxes:
            if np.all(x >= lo - tol) and np.all(x <= hi + tol):
                return True
        for p in self.points:
            if np.max(np.abs(x - p), initial=0.0) <= tol:
                return True
        return False


def default_per_axis(ambient_dim: int) -> int:
    """Grid points per axis when none is given: 129 in 1D, 17 otherwise."""
    return 129 if ambient_dim == 1 else 17


class Grid:
    """Sample points of a domain with an axis-neighbour relation.

    Each box contributes a regular lattice (``per_axis`` points per axis of
    nonzero width); isolated points contribute themselves, with no
    neighbours.  ``directed_edges`` lists every ordered adjacent pair
    together with the index of the next point in the same direction, which
    :func:`confirmed_edges` uses for the two-cell confirmation rule.
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
        for p in domain.points:
            pts.append(p.reshape(1, n))
            start += 1
        self.points = np.vstack(pts) if pts else np.empty((0, n))
        self._blocks = blocks
        self._edges = self._build_edges()

    def __len__(self) -> int:
        return self.points.shape[0]

    def _build_edges(self) -> np.ndarray:
        # columns: tail, head, far (next point past head; -1 if none)
        rows = []
        spacings = []
        for start, shape, spacing in self._blocks:
            size = int(np.prod(shape))
            strides = np.ones(len(shape), dtype=int)
            for a in range(len(shape) - 2, -1, -1):
                strides[a] = strides[a + 1] * shape[a + 1]
            idx = np.arange(size)
            coords = np.array(np.unravel_index(idx, shape)).T
            for a, width in enumerate(shape):
                if width < 2:
                    continue
                for step in (1, -1):
                    ok = (coords[:, a] + step >= 0) & (coords[:, a] + step < width)
                    tails = idx[ok]
                    heads = tails + step * strides[a]
                    far = heads + step * strides[a]
                    far_ok = (coords[ok, a] + 2 * step >= 0) & (
                        coords[ok, a] + 2 * step < width
                    )
                    far = np.where(far_ok, far, -1 - start)
                    rows.append(
                        np.column_stack([tails, heads, far]) + start
                    )
                    spacings.append(np.full(len(tails), spacing[a]))
        self._edge_spacing = np.concatenate(spacings) if spacings else np.empty(0)
        if rows:
            return np.vstack(rows)
        return np.empty((0, 3), dtype=int)

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, spacing): edges has columns (tail, head, far)."""
        return self._edges, self._edge_spacing

    def max_spacing(self) -> float:
        out = 0.0
        for _, _, spacing in self._blocks:
            if spacing.size:
                out = max(out, float(np.max(spacing)))
        return out

    def refined(self) -> "Grid":
        """Grid over the same domain with halved box spacing."""
        if self.per_axis < 2:
            return Grid(self.domain, self.per_axis)
        return Grid(self.domain, 2 * (self.per_axis - 1) + 1)


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

    When ``values`` raises, the outermost ``many`` on the stack evaluates
    the rows one by one, so the first row that fails raises what it raises
    alone, and ``join`` puts the rows back together if none does; a
    ``many`` called inside another batch (a field's, a region's or a
    map's) raises at once and leaves the search to it.
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
        if not X.shape[0]:
            raise
        return join([values(X[i : i + 1]) for i in range(X.shape[0])])
    finally:
        _nesting.active = False


@dataclass(frozen=True)
class ScalarField:
    """A rule from domain points to extended reals, plus a claimed tag.

    ``batch`` maps an array of points, shape (N, n), to the (N,) array of
    their values; a single point is evaluated as a batch of one row.
    """

    domain: Domain | None
    _: KW_ONLY
    batch: Callable[[np.ndarray], np.ndarray] = dc_field(repr=False, compare=False)
    tag: str = TAG_UNKNOWN
    name: str = ""

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise TagError(f"unknown tag {self.tag!r}")

    def __call__(self, x) -> float:
        v = float(self.batch(np.asarray(x, dtype=float)[None])[0])
        if math.isnan(v):
            raise ValueError(f"field {self.name or '<anon>'} returned NaN")
        return v

    def _values(self, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.batch(X), dtype=float)
        if np.isnan(out).any():
            raise ValueError(f"field {self.name or '<anon>'} returned NaN")
        return out

    def many(self, X) -> np.ndarray:
        """Values at every row of ``X`` (shape (N, n)) as an (N,) array,
        equal to ``[self(x) for x in X]`` bit for bit; a failing batch
        raises the first failing row's error (:func:`_outermost_many`)."""
        return _outermost_many(self._values, X)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return add(self, other)

    def __neg__(self) -> "ScalarField":
        return negate(self)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return add(self, negate(other))


@dataclass(frozen=True)
class VectorField:
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

    def __call__(self, x) -> np.ndarray:
        return self._values(np.asarray(x, dtype=float)[None])[0]

    def _values(self, X: np.ndarray) -> np.ndarray:
        Y = np.asarray(self.batch(X), dtype=float)
        if Y.shape != (X.shape[0], self.dim):
            raise DimensionMismatchError(
                f"vector field {self.name or '<anon>'} returned shape {Y.shape[1:]}"
            )
        return Y

    def many(self, X) -> np.ndarray:
        """Values at every row of ``X`` (shape (N, n)) as an (N, m) array,
        equal to ``[self(x) for x in X]`` bit for bit; a failing batch
        raises the first failing row's error (:func:`_outermost_many`)."""
        return _outermost_many(self._values, X)


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
    """Compose with the squash map; strictly increasing, so the tag holds.

    The batch rule is :func:`squash` on every value in one pass, with
    ``math.hypot``: ``np.hypot`` may differ from it in the last bit.  No
    NaN reaches it, since ``f.many`` raises on one.
    """

    def batch(X):
        v = f.many(X)
        with np.errstate(invalid="ignore"):  # inf / inf, replaced below
            w = v / np.fromiter(map(math.hypot, repeat(1.0), v.tolist()), float, v.size)
        inf = np.isinf(v)
        w[inf] = np.sign(v[inf])
        return w

    return ScalarField(
        f.domain, batch=batch, tag=f.tag, name=f"squash({f.name})" if f.name else ""
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


def default_eps(grid: Grid, slope: float = 1.0) -> float:
    """Audit tolerance: ten grid cells of travel at the given slope bound."""
    return 10.0 * grid.max_spacing() * slope


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
    """Largest jump of ``f`` across any adjacent grid pair."""
    return continuity_modulus_values(grid_values(f, grid), grid)


def continuity_modulus_values(vals: np.ndarray, grid: Grid) -> float:
    """:func:`continuity_modulus` for a field given by its values at the
    grid points, shape (N,) or (N, m)."""
    vals = np.asarray(vals, dtype=float)
    edges, _ = grid.directed_edges()
    if edges.shape[0] == 0:
        return 0.0
    diff = vals[edges[:, 0]] - vals[edges[:, 1]]
    if diff.ndim == 1:
        return float(np.max(np.abs(diff)))
    return float(np.max(np.linalg.norm(diff, axis=1)))


def modulus_ratios(
    f, domain: Domain, per_axis: int, halvings: int = 2, values=None
) -> list[float | None]:
    """Modulus ratios across successive grid halvings.

    ``None`` marks a step where both moduli sit below the noise floor
    (1e-12): a locally constant field has nothing left to shrink.
    ``values`` are the values of ``f`` at ``Grid(domain, per_axis)``,
    when the caller already holds them; ``f`` is then evaluated only on
    the refined grids.
    """
    grid = Grid(domain, per_axis)
    if values is None:
        mods = [continuity_modulus(f, grid)]
    else:
        mods = [continuity_modulus_values(values, grid)]
    for _ in range(halvings):
        grid = grid.refined()
        mods.append(continuity_modulus(f, grid))
    out: list[float | None] = []
    for coarse, fine in zip(mods, mods[1:]):
        if coarse <= 1e-12 and fine <= 1e-12:
            out.append(None)
        else:
            out.append(fine / coarse if coarse > 0 else math.inf)
    return out
