"""Set-valued maps T: E => R^m with convex-body values, and their audits.

A map is an ordered list of (region, body rule) pieces over a domain;
the first matching piece wins, which makes evaluation deterministic on
region overlaps.  Maps and regions evaluate on arrays only: a region is
its batch, from (N, n) points to their (N,) mask, and a body rule maps
(N, n) points to the :class:`BodyBatch` of their bodies; one point is a
batch of one row.  Lower semicontinuity and stratification structure are
declared by the caller and audited on grids, never proven.  All audits
use the package-wide two-cell confirmation rule: a defect against a
single neighbouring cell is tolerated when the next cell in the same
direction recovers, since that is the signature of an exceptional point
sitting next to the probe rather than of a genuine violation.  Each audit
hands its defect to the one kernel of that rule, ``fields.confirmed_edges``.
"""

from __future__ import annotations

import operator
from dataclasses import KW_ONLY, dataclass, field as dc_field, replace
from functools import cached_property, partial
from typing import Callable, Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    StratificationError,
    TagError,
    UncoveredPointError,
)
from .fields import (
    AuditReport,
    DEFAULT_SEED,
    Domain,
    Grid,
    ScalarField,
    TAG_LOWER,
    TAG_UNKNOWN,
    TAG_UPPER,
    VectorField,
    Violation,
    _outermost_many,
    confirmed_edges,
    default_eps,
    row_blocks,
)
from .geometry import BodyBatch, ConvexBody, StackedBatch


@dataclass(frozen=True)
class Region:
    """A set of domain points, with a label for reports.

    ``batch`` maps an (N, n) array of points to the (N,) mask of the rows
    inside the region; a single point is tested as a batch of one row.
    """

    label: str = ""
    _: KW_ONLY
    batch: Callable[[np.ndarray], np.ndarray] = dc_field(repr=False)

    def __call__(self, x) -> bool:
        return bool(self.mask(np.asarray(x, dtype=float)[None])[0])

    def _mask(self, X: np.ndarray) -> np.ndarray:
        inside = np.asarray(self.batch(X), dtype=bool)
        if inside.shape != (X.shape[0],):
            raise DimensionMismatchError(
                f"region {self.label or '<anon>'} gave a mask of shape {inside.shape} "
                f"for {X.shape[0]} points"
            )
        return inside

    def mask(self, X: np.ndarray) -> np.ndarray:
        """Membership of each row of ``X``; a failing batch raises the first
        failing row's error (:func:`fields._outermost_many`)."""
        return _outermost_many(self._mask, np.atleast_2d(np.asarray(X, dtype=float)))


EVERYWHERE = Region("everywhere", batch=lambda X: np.ones(X.shape[0], dtype=bool))


def region_or(*rs: Region) -> Region:
    def batch(X):
        # each member is tested only where the earlier ones failed, as ``any`` does
        inside = np.zeros(X.shape[0], dtype=bool)
        for r in rs:
            rest = np.flatnonzero(~inside)
            inside[rest] = r.mask(X[rest])
        return inside

    return Region(" | ".join(r.label for r in rs), batch=batch)


def boundary_mask(inside: np.ndarray, grid: Grid) -> np.ndarray:
    """Which grid points lie outside the mask ``inside`` but share a grid
    edge with a point inside it."""
    edges, _ = grid.directed_edges()
    tail, head = edges[:, 0], edges[:, 1]
    flag = np.zeros(len(grid), dtype=bool)
    flag[tail[~inside[tail] & inside[head]]] = True
    return flag


@dataclass(frozen=True)
class SetValuedMap:
    """Pieces ``(region, rule)``, first match wins; a rule maps (N, n)
    points to the :class:`BodyBatch` of their bodies."""

    domain: Domain
    output_dim: int
    pieces: tuple
    declared_lsc: bool = False
    declared_continuous: bool = False
    name: str = ""

    def evaluate(self, x) -> ConvexBody:
        """T(x), from a batch of one row."""
        return self.evaluate_many(np.asarray(x, dtype=float)[None]).body(0)

    def __call__(self, x) -> ConvexBody:
        return self.evaluate(x)

    def evaluate_many(self, X: np.ndarray) -> BodyBatch:
        """The bodies at every row of ``X`` as one :class:`BodyBatch`.

        Each piece takes the rows that no earlier piece's region holds and
        its own region does, and its rule builds their bodies as one
        batch.  A failing batch raises the first failing row's error
        (:func:`fields._outermost_many`).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        join = partial(StackedBatch.of_rows, dim=self.output_dim)  # joins a search's halves
        return _outermost_many(self._bodies, X, join=join)

    def _bodies(self, X: np.ndarray) -> BodyBatch:
        parts = []
        todo = np.arange(X.shape[0])
        for region, rule in self.pieces:
            if not todo.size:
                break
            hit = region.mask(X[todo])
            rows, todo = todo[hit], todo[~hit]
            if rows.size:
                parts.append((rows, self._checked(rule(X[rows]), rows.size)))
        if todo.size:
            x = X[todo[0]].tolist()
            raise UncoveredPointError(f"no piece covers {x}", x)
        if len(parts) == 1:
            return parts[0][1]  # one piece holds every row, in order
        return StackedBatch(X.shape[0], self.output_dim, parts)

    def _checked(self, bodies, count: int) -> BodyBatch:
        if not isinstance(bodies, BodyBatch):
            raise TypeError(
                f"a piece rule must return a BodyBatch, got {type(bodies).__name__}"
            )
        if len(bodies) != count:  # not searched: no row is to blame
            raise TypeError(f"a piece rule returned {len(bodies)} bodies for {count} points")
        if bodies.dim != self.output_dim:
            raise DimensionMismatchError(
                f"piece produced dim {bodies.dim}, map has m={self.output_dim}"
            )
        return bodies

    def coord_bounds_many(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``, shape (N, m): ``evaluate(x).coord_bounds()`` at
        every row of ``X``."""
        return self.evaluate_many(X).coord_bounds()


def constant_map(domain: Domain, body: ConvexBody, name: str = "") -> SetValuedMap:
    return SetValuedMap(
        domain,
        body.dim,
        ((EVERYWHERE, lambda X: body._row.take(np.zeros(X.shape[0], dtype=np.intp))),),
        declared_lsc=True,
        declared_continuous=True,
        name=name,
    )


def shift(map_: SetValuedMap, f) -> SetValuedMap:
    """The map x -> {y - f(x) : y in T(x)}; preserves declared tags.

    ``f`` is a VectorField tagged continuous or a constant vector.  Each
    piece's rule becomes ``rule(X).translate(-F)``, with F the values of
    ``f`` at the rows ``X``.
    """
    if isinstance(f, VectorField):
        if f.tag != "continuous":
            raise TagError("shift needs a continuous vector field")
        if f.dim != map_.output_dim:
            raise DimensionMismatchError(
                f"shift field has dim {f.dim}, map has m={map_.output_dim}"
            )
        values = f.many
    else:
        c = np.asarray(f, dtype=float).reshape(-1)
        if c.shape != (map_.output_dim,):
            raise DimensionMismatchError(
                f"shift vector has shape {c.shape}, map has m={map_.output_dim}"
            )
        values = lambda X: np.tile(c, (X.shape[0], 1))

    pieces = tuple(
        (region, lambda X, rule=rule: rule(X).translate(-values(X)))
        for region, rule in map_.pieces
    )
    return SetValuedMap(
        map_.domain,
        map_.output_dim,
        pieces,
        declared_lsc=map_.declared_lsc,
        declared_continuous=map_.declared_continuous,
        name=f"{map_.name}-shifted" if map_.name else "",
    )


def envelopes(map_: SetValuedMap) -> tuple[ScalarField, ScalarField]:
    """(inf T, sup T) for m = 1, tagged upper-sc / lower-sc when the map
    is declared lsc (that implication is the content of the envelope
    semicontinuity result; the tags still get audited downstream)."""
    if map_.output_dim != 1:
        raise DimensionMismatchError("envelopes need a map into R^1")

    # callers read f and g on the same points one after the other: the map
    # is evaluated once for both, at the points of the last call
    last = [(np.empty((0, 0)), None)]

    def bound(side: int):
        def batch(X):
            X = np.asarray(X, dtype=float)
            seen, lo_hi = last[0]
            if seen.shape != X.shape or not np.array_equal(
                    seen.view(np.uint64), X.view(np.uint64)):
                lo_hi = map_.coord_bounds_many(X)
                last[0] = (X.copy(), lo_hi)
            return lo_hi[side][:, 0].copy()

        return batch

    lsc = map_.declared_lsc
    f = ScalarField(map_.domain, batch=bound(0),
                    tag=TAG_UPPER if lsc else TAG_UNKNOWN, name=f"inf({map_.name})")
    g = ScalarField(map_.domain, batch=bound(1),
                    tag=TAG_LOWER if lsc else TAG_UNKNOWN, name=f"sup({map_.name})")
    return f, g


# ---------------------------------------------------------------------------
# probing

#: SplitMix64's increment (the odd integer nearest 2^64 / golden ratio)
_GAMMA = 0x9E3779B97F4A7C15

#: Rounds of rejection sampling per body; a body still short after them is
#: topped up with projections of the first proposals of round ``_ROUNDS``.
_ROUNDS = 40


def _mix(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64's output function on a uint64 array, in place, with
    ``scratch`` (an array of z's shape and itemsize) for the shifts."""
    t = np.empty_like(z) if scratch is None else scratch.view(np.uint64)
    np.right_shift(z, 30, out=t)
    z ^= t
    z *= 0xBF58476D1CE4E5B9
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= 0x94D049BB133111EB
    np.right_shift(z, 31, out=t)
    z ^= t
    return z


def _uniforms(seed: int, rows: np.ndarray, round_: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of each body's stream in a round, shape
    (len(rows), count), uniform in [0, 1).

    The stream of body ``row`` in round ``round_`` is SplitMix64 (Steele,
    Lea & Flood, 2014) from the state ``key``: its j-th double is
    ``(mix(key + (j + 1) * GAMMA) >> 11) * 2^-53``.  The key folds the
    seed's 64-bit words (least significant first), then the row, then the
    round into ``GAMMA``, one ``key = mix(key ^ word)`` each.  So a body's
    proposals depend on nothing but the seed, its row and the round.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"the probe seed must be non-negative, got {seed}")
    key = np.array([_GAMMA], dtype=np.uint64)
    while True:
        key = _mix(key ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        seed >>= 64
        if not seed:
            break
    key = _mix(_mix(key ^ np.asarray(rows, dtype=np.uint64)) ^ np.uint64(round_))
    z = key[:, None] + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    u = np.empty(z.shape)  # the shifts' scratch space, then the doubles
    _mix(z, u)
    z >>= 11
    np.copyto(u, z.view(np.int64), casting="unsafe")  # below 2^53: exact
    u *= 2.0**-53
    return u


def _probes(bodies: BodyBatch, count: int, seed: int) -> np.ndarray:
    """Deterministic probes of every body, shape (N, count, m): the points
    attaining its finite coordinate bounds (lower then upper, coordinate by
    coordinate), then its least-norm point, then seeded members
    (:func:`_sample`); padded by repeating the last probe when the body
    cannot be sampled (unbounded without a box)."""
    lo, hi, arg_lo, arg_hi = bodies.coord_extremes()
    N, m = lo.shape
    anchors = np.stack([arg_lo, arg_hi], axis=2).reshape(N, 2 * m, m)
    finite = np.isfinite(np.stack([lo, hi], axis=2)).reshape(N, 2 * m)
    least = bodies.least_norm()
    samples, drawn = _sample(bodies, np.maximum(count - 1 - finite.sum(axis=1), 0), seed)
    points = np.concatenate([anchors, least[:, None], samples], axis=1)
    valid = np.concatenate([finite, np.ones((N, 1), dtype=bool), drawn], axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")  # each body's probes first, in order
    last = valid.sum(axis=1, keepdims=True) - 1
    at = np.arange(N)[:, None]
    return points[at, order[at, np.minimum(np.arange(count), last)]]


def _sample(bodies: BodyBatch, k: np.ndarray, seed: int):
    """``k[i]`` members of each body i that can be sampled, shape
    (N, max k, m), and which entries hold one, shape (N, max k).

    Body i draws rounds of ``max(4 k_i, 64)`` proposals, uniform in its
    ``sample_bounds`` box, from its own stream (:func:`_uniforms`), and
    keeps those inside it, in order; after 40 rounds it tops up with
    projections of the first proposals of the next round.  The bodies
    still short go on together, a round at a time, and the top-up
    projects the bodies short by the same count in one call.
    """
    lo, hi = bodies.sample_bounds()
    m = lo.shape[1]
    span = np.maximum(hi - lo, 0.0)
    size = np.maximum(4 * k, 64)
    can = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1) & (k > 0)
    out = np.zeros((len(k), int(k.max(initial=0)), m))
    got = np.zeros(len(k), dtype=np.intp)
    todo = np.flatnonzero(can)
    for round_ in range(_ROUNDS):
        if not todo.size:
            break
        for s in sorted(set(size[todo].tolist())):  # np.unique would import numpy.ma
            rows = todo[size[todo] == s]
            Z, inside = _round(bodies, rows, lo, span, s, seed, round_)
            # each proposal's slot: the body's hits before it, this round included
            rank = got[rows, None] + np.cumsum(inside, axis=1) - inside
            b, j = np.nonzero(inside & (rank < k[rows, None]))
            out[rows[b], rank[b, j]] = Z[b, j]
            got[rows] = np.minimum(rank[:, -1] + inside[:, -1], k[rows])
        todo = todo[got[todo] < k[todo]]
    short = k[todo] - got[todo]
    for c in sorted(set(short.tolist())):
        rows = todo[short == c]
        Z = _uniforms(seed, rows, _ROUNDS, c * m).reshape(rows.size, c, m)
        Z *= span[rows, None]
        Z += lo[rows, None]
        out[rows[:, None], got[rows, None] + np.arange(c)] = bodies.project_rows(rows, Z)
    return out, np.arange(out.shape[1]) < np.where(can, k, 0)[:, None]


def _round(bodies: BodyBatch, rows: np.ndarray, lo, span, size: int, seed: int,
           round_: int):
    """Round ``round_``'s ``size`` proposals for each body of ``rows``,
    shape (R, size, m), and whether each lies in its body, shape (R, size), in row blocks."""
    m = lo.shape[1]
    Z, inside = np.empty((rows.size, size, m)), np.empty((rows.size, size), dtype=bool)
    for block in row_blocks(rows.size, size * m):
        at = rows[block]
        u = _uniforms(seed, at, round_, size * m).reshape(at.size, size, m)
        Z[block] = u * span[at, None] + lo[at, None]
        inside[block] = bodies.contains(at, Z[block])
    return Z, inside


def graph_sample(
    map_: SetValuedMap, grid: Grid, per_point: int, seed: int = DEFAULT_SEED
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``per_point`` members of T(x) for every grid x, deterministically."""
    if per_point < 1:
        raise ValueError("per_point must be >= 1")
    probes = _probes(map_.evaluate_many(grid.points), per_point, seed)
    return [(x.copy(), y) for x, ys in zip(grid.points, probes) for y in ys]


# ---------------------------------------------------------------------------
# audits


class _ProbedGrid:
    """T evaluated and probed at every grid point, shared by the lsc and
    continuity audits on that grid.

    At the first audit T is evaluated as one batch and every body's probes
    are drawn from it (:func:`_probes`), each body from the stream keyed by
    the seed and its grid index, so each audit reads exactly the probes a
    fresh audit would draw.
    Each (tail, head) row of distances, from the tail's probes to the
    head's body, is projected once and remembered; the rows that a sweep
    asks for are projected together, in one call per batch of heads.
    """

    def __init__(self, map_: SetValuedMap, grid: Grid, seed: int):
        self.map, self.grid, self.seed = map_, grid, seed
        self.probe_count = 2 * map_.output_dim + 4
        # the (tail, head) rows projected so far by key tail * N + head,
        # sorted, after a sentinel key that no row has
        self._keys = np.array([np.iinfo(np.intp).max])
        self._rows = np.empty((1, self.probe_count))

    @cached_property
    def _drawn(self) -> tuple[BodyBatch, np.ndarray]:
        bodies = self.map.evaluate_many(self.grid.points)
        return bodies, _probes(bodies, self.probe_count, self.seed)

    def _project(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Distances from each probe of ``tails[e]`` to the body at
        ``heads[e]``, shape (E, probe_count)."""
        bodies, probes = self._drawn
        P = probes[tails]
        return np.linalg.norm(bodies.project_rows(heads, P) - P, axis=2)

    def _distances(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """:meth:`_project` of every (tail, head) pair, projecting only the
        pairs not projected before on this grid."""
        n = len(self.grid)
        keys = tails * n + heads
        new = np.sort(keys[self._keys[np.searchsorted(self._keys, keys)] != keys])
        new = new[np.diff(new, prepend=-1) != 0]
        if new.size:
            every = np.concatenate([self._keys, new])
            order = np.argsort(every, kind="stable")
            self._keys = every[order]
            self._rows = np.concatenate([self._rows, self._project(*np.divmod(new, n))])[order]
        return self._rows[np.searchsorted(self._keys, keys)]

    def audit(self, kind: str, eps: float | None = None,
              mask: np.ndarray | None = None) -> AuditReport:
        """The lsc sweep of :func:`lsc_audit` over the edges with both
        ends in ``mask``."""
        grid = self.grid
        if eps is None:
            eps = default_eps(grid)
        _, probes = self._drawn
        tails, heads, js, deficits = confirmed_edges(
            grid, lambda t, h, s: self._distances(t, h) - (eps + s)[:, None], mask=mask
        )
        pts = grid.points
        violations = [
            Violation(
                x=pts[t],
                deficit=d,
                neighbor=pts[h],
                probe=probes[t][j],
                message="neighbour body stays far from a probe point",
            )
            for t, h, j, d in zip(tails, heads, js, deficits.tolist())
        ]
        return AuditReport(
            kind=kind,
            passed=not violations,
            violations=tuple(violations),
            checked=len(grid),
            eps=eps,
        )

    def continuity(self, label: str, mask: np.ndarray,
                   eps: float | None = None) -> AuditReport:
        """The continuity audit of the region ``label``, whose grid points
        are ``mask``."""
        report = self.audit(f"continuity[{label}]", eps, mask)
        return replace(report, checked=int(mask.sum()))


def lsc_audit(
    map_: SetValuedMap,
    grid: Grid,
    eps: float | None = None,
    mask: np.ndarray | None = None,
    seed: int = DEFAULT_SEED,
) -> AuditReport:
    """Grid audit of lower semicontinuity, optionally restricted to the
    edges with both ends in ``mask``: for every grid point x0 and probe
    y0 of T(x0), each grid neighbour x must have distance(T(x), y0)
    within eps plus a spacing-proportional allowance.  Defects are
    confirmed against the next cell in the same direction before being
    reported."""
    return _ProbedGrid(map_, grid, seed).audit("lsc", eps, mask)


def continuity_audit(
    map_: SetValuedMap,
    grid: Grid,
    eps: float | None = None,
    region: Region | None = None,
    seed: int = DEFAULT_SEED,
) -> AuditReport:
    """Two-sided audit (the directed-edge sweep covers both directions,
    which on grids is the closed-graph check on top of lsc), optionally
    restricted to a region, as for each stratum in :func:`hypothesis_audits`."""
    probed = _ProbedGrid(map_, grid, seed)
    if region is None:
        return probed.audit("continuity", eps)
    return probed.continuity(region.label, region.mask(grid.points), eps)


@dataclass(frozen=True)
class Stratification:
    """An ordered partition C_1, ..., C_k of the domain, earliest first.

    The audit enforces the two structural facts the selection recursion
    leans on: every grid point belongs to exactly one stratum, and each
    C_j is relatively open in C_j ∪ ... ∪ C_k (no grid point of C_j is
    wedged against a persistently later-stratum neighbour).
    """

    strata: tuple

    def __post_init__(self):
        if not self.strata:
            raise StratificationError("need at least one stratum")

    @property
    def depth(self) -> int:
        return len(self.strata)

    def masks(self, X: np.ndarray) -> np.ndarray:
        """(k, N) membership of each row of ``X`` in each stratum."""
        return np.array([region.mask(X) for region in self.strata])


def stratification_audit(strat: Stratification, grid: Grid) -> AuditReport:
    return stratification_audit_masks(strat.masks(grid.points), grid)


def stratification_audit_masks(inside: np.ndarray, grid: Grid) -> AuditReport:
    """:func:`stratification_audit` for strata given by their (k, N)
    ``inside`` masks at the grid points."""
    pts = grid.points
    counts = inside.sum(axis=0)
    violations = []
    for i in np.nonzero(counts != 1)[0]:
        word = "no stratum" if counts[i] == 0 else f"{counts[i]} strata"
        violations.append(
            Violation(x=pts[i], deficit=float(abs(counts[i] - 1)),
                      message=f"grid point matches {word}")
        )
    if violations:
        return AuditReport(
            kind="stratification", passed=False, violations=tuple(violations),
            checked=len(grid),
        )
    cls = np.argmax(inside, axis=0)  # each point's first stratum
    tails, heads, _, deficits = confirmed_edges(
        grid, lambda t, h, _s: cls[h] - cls[t]
    )
    violations = [
        Violation(
            x=pts[t],
            deficit=float(d),
            neighbor=pts[h],
            message=(
                f"stratum {cls[t]} point has persistent stratum-{cls[h]} "
                "neighbours (relative openness fails)"
            ),
        )
        for t, h, d in zip(tails, heads, deficits)
    ]
    return AuditReport(
        kind="stratification",
        passed=not violations,
        violations=tuple(violations),
        checked=len(grid),
    )


def hypothesis_audits(
    map_: SetValuedMap, strat: Stratification, grid: Grid, seed: int = DEFAULT_SEED
) -> Iterator[AuditReport]:
    """The grid audits of Michael's hypotheses, one report at a time: lsc
    (only for a map declared lsc), then the stratification, then
    ``continuity[<label>]`` for each stratum.

    All map audits share one :class:`_ProbedGrid`: T is evaluated and
    probed once, at the first of them, and no edge is projected twice.
    The strata's masks are computed once, for the stratification audit,
    and read by the continuity audits.  Each report equals that of the
    separate audit call; a consumer that stops at a failed report runs
    none of the later audits.
    """
    probed = _ProbedGrid(map_, grid, seed)
    if map_.declared_lsc:
        yield probed.audit("lsc")
    masks = strat.masks(grid.points)
    yield stratification_audit_masks(masks, grid)
    for region, mask in zip(strat.strata, masks):
        yield probed.continuity(region.label, mask)
