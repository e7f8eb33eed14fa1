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
        # a search row by row gives back one-row batches, in order
        join = partial(StackedBatch.of_rows, dim=self.output_dim)
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
            raise UncoveredPointError(f"no piece covers {X[todo[0]].tolist()}")
        if len(parts) == 1:
            return parts[0][1]  # one piece holds every row, in order
        return StackedBatch(X.shape[0], self.output_dim, parts)

    def _checked(self, bodies, count: int) -> BodyBatch:
        if not isinstance(bodies, BodyBatch):
            raise TypeError(
                f"a piece rule must return a BodyBatch, got {type(bodies).__name__}"
            )
        if len(bodies) != count:  # not searched row by row: no row is to blame
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
        ((EVERYWHERE, lambda X: StackedBatch.of_rows([body._row] * X.shape[0], body.dim)),),
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

    lsc = map_.declared_lsc
    f = ScalarField(map_.domain, batch=lambda X: map_.coord_bounds_many(X)[0][:, 0],
                    tag=TAG_UPPER if lsc else TAG_UNKNOWN, name=f"inf({map_.name})")
    g = ScalarField(map_.domain, batch=lambda X: map_.coord_bounds_many(X)[1][:, 0],
                    tag=TAG_LOWER if lsc else TAG_UNKNOWN, name=f"sup({map_.name})")
    return f, g


# ---------------------------------------------------------------------------
# probing


def _probes(bodies: BodyBatch, count: int, rng: np.random.Generator) -> np.ndarray:
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
    samples, drawn = _sample(bodies, np.maximum(count - 1 - finite.sum(axis=1), 0), rng)
    points = np.concatenate([anchors, least[:, None], samples], axis=1)
    valid = np.concatenate([finite, np.ones((N, 1), dtype=bool), drawn], axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")  # each body's probes first, in order
    last = valid.sum(axis=1, keepdims=True) - 1
    at = np.arange(N)[:, None]
    return points[at, order[at, np.minimum(np.arange(count), last)]]


def _sample(bodies: BodyBatch, k: np.ndarray, rng: np.random.Generator):
    """``k[i]`` members of each body i that can be sampled, shape
    (N, max k, m), and which entries hold one, shape (N, max k).

    Body i draws rounds of ``max(4 k_i, 64)`` proposals, uniform in its
    ``sample_bounds`` box, and keeps those inside it, in order; after 40
    rounds it tops up with projections of further proposals.  The bodies
    draw from ``rng`` one after another, in row order.  Round 1 nearly
    always suffices, so every body's round 1 comes from one draw; from the
    first body whose round 1 falls short, the generator is set back, the
    rounds up to that body's are drawn again, and that body goes on alone
    before the draw resumes at the next body: the stream is the same.
    """
    lo, hi = bodies.sample_bounds()
    m = lo.shape[1]
    span = np.maximum(hi - lo, 0.0)
    size = np.maximum(4 * k, 64)
    can = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1) & (k > 0)
    out = np.zeros((len(k), int(k.max(initial=0)), m))
    todo = np.flatnonzero(can)
    while todo.size:
        # the bodies up to the next change of round size draw round 1 together
        run = todo[: np.argmax(np.append(size[todo] != size[todo[0]], True))]
        state = rng.bit_generator.state
        Z, inside = _round(bodies, run, lo, span, size[run[0]], rng)
        rank = np.cumsum(inside, axis=1) - inside  # the hits before, in its body's round
        hits = rank[:, -1] + inside[:, -1]
        short = np.flatnonzero(hits < k[run])
        done = run.size if not short.size else short[0] + 1
        b, j = np.nonzero(inside[:done] & (rank[:done] < k[run[:done], None]))
        out[run[b], rank[b, j]] = Z[b, j]
        todo = todo[done:]
        if not short.size:
            continue
        i, got = run[short[0]], hits[short[0]]
        rng.bit_generator.state = state
        rng.random((done * size[i], m))  # the rounds used, up to body i's
        for _ in range(39):
            Zi, inside = _round(bodies, run[short[:1]], lo, span, size[i], rng)
            Zi = Zi[inside][: k[i] - got]
            out[i, got : got + len(Zi)] = Zi
            got += len(Zi)
            if got == k[i]:
                break
        else:
            Zi = lo[i] + span[i] * rng.random((k[i] - got, m))
            out[i, got : k[i]] = bodies.project_rows([i], Zi[None])[0]
    return out, np.arange(out.shape[1]) < np.where(can, k, 0)[:, None]


def _round(bodies: BodyBatch, rows: np.ndarray, lo, span, size: int, rng):
    """One round of ``size`` proposals for each body of ``rows`` in turn,
    from one draw, shape (R, size, m), and whether each lies in its body,
    shape (R, size)."""
    shape = (rows.size, size, lo.shape[1])
    # each body's box repeated over its round: faster than a broadcast whose
    # last axis is short
    box = [np.repeat(v[rows], size, axis=0).reshape(shape) for v in (lo, span)]
    Z = box[0] + box[1] * rng.random(shape)
    return Z, bodies.contains(rows, Z)


def graph_sample(
    map_: SetValuedMap, grid: Grid, per_point: int, seed: int = DEFAULT_SEED
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``per_point`` members of T(x) for every grid x, deterministically."""
    if per_point < 1:
        raise ValueError("per_point must be >= 1")
    probes = _probes(map_.evaluate_many(grid.points), per_point, np.random.default_rng(seed))
    return [(x.copy(), y) for x, ys in zip(grid.points, probes) for y in ys]


# ---------------------------------------------------------------------------
# audits


class _ProbedGrid:
    """T evaluated and probed at every grid point, shared by the lsc and
    continuity audits on that grid.

    At the first audit T is evaluated as one batch and every body's probes
    are drawn from it (:func:`_probes`), from one seeded stream in grid
    order, so each audit reads exactly the probes a fresh audit would draw.
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
        return bodies, _probes(bodies, self.probe_count, np.random.default_rng(self.seed))

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
