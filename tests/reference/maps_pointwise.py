"""Set-valued maps one point at a time: the oracle that
``SetValuedMap.evaluate_many``, ``Region.mask`` and
``specio.expr.evaluate_many`` must reproduce bit for bit.

The library evaluates maps, regions and expressions on arrays only.  Here
are their pointwise twins: the recursive expression evaluator
(:func:`evaluate`), a region as a per-point predicate
(:class:`PointwiseRegion`) and a map as first-match pieces of per-point
rules (:class:`PointwiseMap`).  A map is built from per-point rules, or
from a problem dict as the loader reads it (:func:`load_pointwise`).
``PointwiseRegion.region()`` and ``PointwiseMap.library()`` give the
library objects whose batches run the per-point rules row by row, for
tests that write a map as per-point rules.

The probes of the grid audits are here body by body too
(:func:`probe_points`, :func:`sample`, :func:`distance_to`): the library
draws them from one body batch, and must give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from convsel.errors import (
    DimensionMismatchError,
    EvalDomainError,
    UnboundedBodyError,
    UncoveredPointError,
)
from convsel.fields import Domain
from convsel.geometry import Ball, ConvexBody, HPolytope, Interval, StackedBatch, kernel_operators
from convsel.maps import Region, SetValuedMap
from convsel.specio.expr import Const, Pow, Unary, Var, _pow, max_var_index
from convsel.specio.loader import _interval_bound, _parse, _parse_atom, build_domain


def evaluate(node, point) -> float:
    """Evaluate ``node`` at ``point`` (a sequence of coordinates), one
    node at a time in Python floats."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        if node.index >= len(point):
            raise EvalDomainError(
                f"expression uses x{node.index + 1} but the point has "
                f"{len(point)} coordinates"
            )
        return float(point[node.index])
    if isinstance(node, Unary):
        v = evaluate(node.arg, point)
        if node.op == "neg":
            return -v
        if node.op == "abs":
            return abs(v)
        if v < 0.0:
            raise EvalDomainError(f"sqrt of negative value {v}")
        return math.sqrt(v)
    if isinstance(node, Pow):
        return _pow(evaluate(node.base, point), node.exponent)
    lhs = evaluate(node.lhs, point)
    rhs = evaluate(node.rhs, point)
    if node.op == "add":
        return lhs + rhs
    if node.op == "sub":
        return lhs - rhs
    if node.op == "mul":
        return lhs * rhs
    if node.op == "div":
        if rhs == 0.0:
            raise EvalDomainError("division by zero")
        return lhs / rhs
    if node.op == "min":
        return min(lhs, rhs)
    return max(lhs, rhs)


@dataclass(frozen=True)
class PointwiseRegion:
    """A per-point predicate over domain points, with a label for reports."""

    predicate: Callable[[np.ndarray], bool]
    label: str = ""

    def __call__(self, x) -> bool:
        return bool(self.predicate(np.asarray(x, dtype=float)))

    def mask(self, X) -> np.ndarray:
        """The predicate at each row of ``X``, in order."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.fromiter((self(x) for x in X), dtype=bool, count=X.shape[0])

    def region(self) -> Region:
        """The library region whose batch tests the rows one by one."""
        return Region(self.label, batch=self.mask)


EVERYWHERE = PointwiseRegion(lambda x: True, "everywhere")


def region_or(*rs: PointwiseRegion) -> PointwiseRegion:
    return PointwiseRegion(lambda x: any(r(x) for r in rs), " | ".join(r.label for r in rs))


def region_not(r: PointwiseRegion) -> PointwiseRegion:
    return PointwiseRegion(lambda x: not r(x), f"not({r.label})")


def rows_rule(rule, dim: int):
    """The library body rule of a per-point ``rule``: one body per row."""
    return lambda X: StackedBatch.of_rows([rule(x)._row for x in X], dim)


@dataclass(frozen=True)
class PointwiseMap:
    """Pieces ``(region, rule)`` of per-point regions and rules
    ``x -> ConvexBody``, first match wins."""

    domain: Domain
    output_dim: int
    pieces: tuple
    declared_lsc: bool = False
    declared_continuous: bool = False
    name: str = ""

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        for region, rule in self.pieces:
            if region(x):
                body = rule(x)
                if body.dim != self.output_dim:
                    raise DimensionMismatchError(
                        f"piece produced dim {body.dim}, map has m={self.output_dim}"
                    )
                return body
        raise UncoveredPointError(f"no piece covers {x.tolist()}")

    def library(self) -> SetValuedMap:
        """The library map whose regions and rules run these row by row."""
        pieces = tuple(
            (region.region(), rows_rule(rule, self.output_dim)) for region, rule in self.pieces
        )
        return SetValuedMap(
            self.domain, self.output_dim, pieces, declared_lsc=self.declared_lsc,
            declared_continuous=self.declared_continuous, name=self.name,
        )


# --- problem dicts, as the loader reads them -------------------------------------


def _region(atoms: list, n: int) -> PointwiseRegion:
    if not atoms:
        return EVERYWHERE
    parsed = [_parse_atom(a, "$", n) for a in atoms]

    def predicate(x):
        for lhs, rhs, strict in parsed:
            a = evaluate(lhs, x)
            b = evaluate(rhs, x)
            if (a >= b) if strict else (a > b):
                return False
        return True

    return PointwiseRegion(predicate, " and ".join(str(a).strip() for a in atoms))


def _rule(spec: dict, n: int):
    (kind, body), = spec.items()
    if kind == "interval":
        lo = _interval_bound(body["lo"], "$", n)
        hi = _interval_bound(body["hi"], "$", n)
        return lambda x: Interval(evaluate(lo, x), evaluate(hi, x))
    if kind == "ball":
        center = [_parse(c, "$", n) for c in body["center"]]
        radius = _parse(body["radius"], "$", n)
        return lambda x: Ball([evaluate(c, x) for c in center], evaluate(radius, x))
    rows = [([_parse(c, "$", n) for c in row["normal"]], _parse(row["offset"], "$", n))
            for row in body["rows"]]
    box = body.get("bounding_box")
    if box is not None:
        box = (np.array(box["lo"], dtype=float), np.array(box["hi"], dtype=float))

    def normals(x):
        return np.array([[evaluate(c, x) for c in normal] for normal, _ in rows])

    def rule(x):
        b = np.array([evaluate(offset, x) for _, offset in rows])
        return HPolytope(normals(x), b, bounding_box=box)

    if any(max_var_index(c) != -1 for normal, _ in rows for c in normal):
        return rule
    try:
        A = normals(np.zeros(n))
    except EvalDomainError:
        return rule
    sets = kernel_operators(A)

    def shared_rule(x):
        # constant normals: every body shares A and the kernel's operators
        b = np.array([evaluate(offset, x) for _, offset in rows])
        return HPolytope(A, b, bounding_box=box, _sets=sets)

    return shared_rule


def load_pointwise(raw: dict) -> tuple[PointwiseMap, tuple[PointwiseRegion, ...]]:
    """The map and strata of a valid problem dict, one point at a time."""
    n, m = raw["ambient_dim"], raw["output_dim"]
    pieces = tuple(
        (_region(piece.get("region", []), n), _rule(piece["body"], n))
        for piece in raw["pieces"]
    )
    tags = raw.get("tags", {})
    map_ = PointwiseMap(
        build_domain(raw["domain"], "$", n), m, pieces,
        declared_lsc=bool(tags.get("declared_lsc", False)),
        declared_continuous=bool(tags.get("declared_continuous", False)),
    )
    return map_, tuple(_region(atoms, n) for atoms in raw.get("strata", [[]]))


# --- probes, body by body ---------------------------------------------------------


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


def extreme_points(body: ConvexBody) -> list[np.ndarray]:
    """Points attaining each finite coordinate bound (the probe anchors)."""
    out: list[np.ndarray] = []
    if isinstance(body, Interval):
        for v in (body.lo, body.hi):
            if math.isfinite(v):
                out.append(np.array([v]))
        return out
    if isinstance(body, Ball):
        for j in range(body.dim):
            e = np.zeros(body.dim)
            e[j] = body.radius
            out.append(body.center - e)
            out.append(body.center + e)
        return out
    lo, hi, arg_lo, arg_hi = body.coord_extremes()
    for j in range(body.dim):
        for bound, arg in ((lo[j], arg_lo[j]), (hi[j], arg_hi[j])):
            if math.isfinite(bound):
                out.append(arg.copy())
    return out


def probe_points(body: ConvexBody, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Deterministic probes of a body: coordinate extremes, then the
    least-norm point, then seeded interior samples; padded by repetition
    when the body cannot be sampled (unbounded without a box)."""
    pts = extreme_points(body)
    pts.append(body.least_norm())
    if len(pts) < count:
        try:
            extra = sample(body, count - len(pts), rng)
            pts.extend(np.asarray(extra))
        except UnboundedBodyError:
            pass
    while len(pts) < count:
        pts.append(pts[-1].copy())
    return pts[:count]


def grid_probes(bodies, count: int, seed: int) -> np.ndarray:
    """The probes of each body in turn, drawn from one seeded stream,
    shape (N, count, m)."""
    rng = np.random.default_rng(seed)
    return np.array([probe_points(b, count, rng) for b in bodies], dtype=float)


def distance_to(body: ConvexBody, probes: np.ndarray) -> np.ndarray:
    """The distance from each probe to the body, by one ``project_many``."""
    proj = body.project_many(probes)
    return np.linalg.norm(proj - probes, axis=1)
