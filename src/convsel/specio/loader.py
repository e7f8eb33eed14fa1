"""Load set-valued selection problems from JSON files.

Problem layout::

    {
      "ambient_dim": 1,
      "output_dim": 1,
      "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}], "points": [[3.0]]},
      "strata": [["0 < abs(x1)"], []],
      "pieces": [
        {"region": ["0 < abs(x1)"],
         "body": {"interval": {"lo": "abs(x1)", "hi": "2"}}},
        {"region": [],
         "body": {"interval": {"lo": "0", "hi": "2"}}}
      ],
      "tags": {"declared_lsc": true}
    }

Regions are conjunctions of atoms ``"<expr> <= <expr>"`` or
``"<expr> < <expr>"``; an empty atom list means "everywhere".  Pieces
apply first-match-wins.  Body kinds: ``interval`` (bounds are
expressions, or the literal strings ``"inf"`` / ``"-inf"``), ``ball``
(center expressions + radius expression), ``hpolytope`` (rows of normal
expressions + offset expression, optional numeric ``bounding_box``).
``strata`` is optional and defaults to the single stratum "everywhere".

Regions and body rules are built as batches: each expression is
evaluated with :func:`expr.evaluate_many` over the rows of an (N, n)
array of points.

Validation failures raise :class:`SpecValidationError` whose message
starts with the JSON path of the offending field.  Coverage of the
domain by pieces and by strata is checked on a coarse grid, as one
batch; a gap is reported with the first failing grid point as witness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from convsel.errors import (
    EvalDomainError,
    ExprSyntaxError,
    SpecValidationError,
    UncoveredPointError,
)
from convsel.fields import Domain, Grid, _outermost_many
from convsel.geometry import BallBatch, IntervalBatch, PolytopeBatch, kernel_operators
from convsel.maps import EVERYWHERE, Region, SetValuedMap, Stratification
from convsel.specio import expr

_BODY_KINDS = ("interval", "ball", "hpolytope")
_VALIDATION_PER_AXIS = {1: 33, 2: 9}


@dataclass(frozen=True)
class ProblemSpec:
    """A validated problem: the map, its stratification, and the raw dict."""

    ambient_dim: int
    output_dim: int
    domain: Domain
    map: SetValuedMap
    stratification: Stratification
    raw: dict
    path: str = ""


# --- field helpers ----------------------------------------------------------


def _fail(path: str, message: str) -> SpecValidationError:
    return SpecValidationError(f"{path}: {message}")


def uncovered(x: list) -> SpecValidationError:
    """The input error of a domain point ``x`` that no piece covers."""
    return _fail("$.pieces", f"no piece covers the domain point {x}")


def _require(obj, path: str, typ, what: str):
    if not isinstance(obj, typ):
        raise _fail(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _int_at_least(obj, path: str, minimum: int) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _fail(path, f"expected an integer, got {type(obj).__name__}")
    if obj < minimum:
        raise _fail(path, f"must be >= {minimum}, got {obj}")
    return obj


def _number_list(obj, path: str, length: int) -> list[float]:
    _require(obj, path, list, "a list of numbers")
    if len(obj) != length:
        raise _fail(path, f"expected {length} entries, got {len(obj)}")
    out = []
    for i, v in enumerate(obj):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _fail(f"{path}[{i}]", "expected a number")
        if not math.isfinite(v):
            raise _fail(f"{path}[{i}]", "must be finite")
        out.append(float(v))
    return out


def _reject_unknown(obj: dict, path: str, allowed: tuple):
    for key in obj:
        if key not in allowed:
            raise _fail(f"{path}.{key}", f"unknown field (allowed: {', '.join(allowed)})")


def _parse(source, path: str, n: int) -> expr.Node:
    if isinstance(source, (int, float)) and not isinstance(source, bool):
        if not math.isfinite(source):
            raise _fail(path, "numeric literal must be finite")
        return expr.Const(float(source))
    _require(source, path, str, "an expression string")
    try:
        node = expr.parse_expr(source)
    except ExprSyntaxError as exc:
        raise _fail(path, f"bad expression {source!r}: {exc}") from exc
    top = expr.max_var_index(node)
    if top >= n:
        raise _fail(path, f"expression uses x{top + 1} but ambient_dim is {n}")
    return node


# --- regions ----------------------------------------------------------------


def _parse_atom(source, path: str, n: int):
    _require(source, path, str, "a region atom string")
    if "<=" in source:
        parts = source.split("<=")
        strict = False
    elif "<" in source:
        parts = source.split("<")
        strict = True
    else:
        raise _fail(path, f"region atom {source!r} needs '<=' or '<'")
    if len(parts) != 2:
        raise _fail(path, f"region atom {source!r} must have exactly one comparison")
    lhs = _parse(parts[0], path, n)
    rhs = _parse(parts[1], path, n)
    return lhs, rhs, strict


def build_region(atoms, path: str, n: int) -> Region:
    """Conjunction of comparison atoms; an empty list is the whole domain."""
    _require(atoms, path, list, "a list of region atoms")
    if not atoms:
        return EVERYWHERE
    parsed = [
        _parse_atom(a, f"{path}[{i}]", n) for i, a in enumerate(atoms)
    ]
    label = " and ".join(str(a).strip() for a in atoms)

    def batch(X):
        # atom k is evaluated only on the rows where the earlier atoms hold
        inside = np.ones(X.shape[0], dtype=bool)
        for lhs, rhs, strict in parsed:
            rows = np.flatnonzero(inside)
            Y = X[rows]
            a = expr.evaluate_many(lhs, Y)
            b = expr.evaluate_many(rhs, Y)
            inside[rows] = ~((a >= b) if strict else (a > b))
        return inside

    return Region(label, batch=batch)


# --- bodies -----------------------------------------------------------------


def _interval_bound(source, path: str, n: int) -> expr.Node:
    if isinstance(source, str) and source.strip() in ("inf", "-inf"):
        return expr.Const(math.inf if source.strip() == "inf" else -math.inf)
    return _parse(source, path, n)


def _columns(nodes, X: np.ndarray) -> np.ndarray:
    """The values of ``nodes`` at the rows of ``X``, one column each."""
    return np.column_stack([expr.evaluate_many(node, X) for node in nodes])


def _build_interval(spec: dict, path: str, n: int, m: int):
    if m != 1:
        raise _fail(path, f"interval bodies need output_dim 1, got {m}")
    _reject_unknown(spec, path, ("lo", "hi"))
    for key in ("lo", "hi"):
        if key not in spec:
            raise _fail(f"{path}.{key}", "missing")
    lo = _interval_bound(spec["lo"], f"{path}.lo", n)
    hi = _interval_bound(spec["hi"], f"{path}.hi", n)
    return lambda X: IntervalBatch(expr.evaluate_many(lo, X), expr.evaluate_many(hi, X))


def _build_ball(spec: dict, path: str, n: int, m: int):
    _reject_unknown(spec, path, ("center", "radius"))
    if "center" not in spec:
        raise _fail(f"{path}.center", "missing")
    if "radius" not in spec:
        raise _fail(f"{path}.radius", "missing")
    center_spec = _require(spec["center"], f"{path}.center", list, "a list of expressions")
    if len(center_spec) != m:
        raise _fail(
            f"{path}.center", f"expected {m} coordinates, got {len(center_spec)}"
        )
    center = [_parse(c, f"{path}.center[{i}]", n) for i, c in enumerate(center_spec)]
    radius = _parse(spec["radius"], f"{path}.radius", n)
    return lambda X: BallBatch(_columns(center, X), expr.evaluate_many(radius, X))


def _build_hpolytope(spec: dict, path: str, n: int, m: int):
    _reject_unknown(spec, path, ("rows", "bounding_box"))
    rows_spec = _require(spec.get("rows"), f"{path}.rows", list, "a list of rows")
    if not rows_spec:
        raise _fail(f"{path}.rows", "needs at least one row")
    normals, offsets = [], []
    for i, row in enumerate(rows_spec):
        rpath = f"{path}.rows[{i}]"
        _require(row, rpath, dict, "an object")
        _reject_unknown(row, rpath, ("normal", "offset"))
        normal_spec = _require(
            row.get("normal"), f"{rpath}.normal", list, "a list of expressions"
        )
        if len(normal_spec) != m:
            raise _fail(
                f"{rpath}.normal", f"expected {m} coordinates, got {len(normal_spec)}"
            )
        normals.append(
            [_parse(c, f"{rpath}.normal[{j}]", n) for j, c in enumerate(normal_spec)]
        )
        if "offset" not in row:
            raise _fail(f"{rpath}.offset", "missing")
        offsets.append(_parse(row["offset"], f"{rpath}.offset", n))
    box = None
    if "bounding_box" in spec:
        bpath = f"{path}.bounding_box"
        bspec = _require(spec["bounding_box"], bpath, dict, "an object")
        _reject_unknown(bspec, bpath, ("lo", "hi"))
        lo = np.array(_number_list(bspec.get("lo"), f"{bpath}.lo", m))
        hi = np.array(_number_list(bspec.get("hi"), f"{bpath}.hi", m))
        box = (lo, hi)

    def normals_at(X):
        return np.stack([_columns(normal, X) for normal in normals], axis=1)

    def per_row(X):
        B = _columns(offsets, X)  # before the normals, as one point evaluates them
        A = normals_at(X)
        return PolytopeBatch(A, kernel_operators(A), B, box)

    if any(expr.max_var_index(c) != -1 for normal in normals for c in normal):
        return per_row  # the normals vary: a normal matrix per row
    try:
        A = normals_at(np.zeros((1, n)))[0]
    except EvalDomainError:
        return per_row  # every row raises, each where it is evaluated
    A.setflags(write=False)
    sets = kernel_operators(A)  # None past the kernel's limit: every row on the fallback
    # constant normals: every body shares A and the kernel's operators
    return lambda X: PolytopeBatch(A, sets, _columns(offsets, X), box)


_BODY_BUILDERS = {
    "interval": _build_interval,
    "ball": _build_ball,
    "hpolytope": _build_hpolytope,
}


def build_body_rule(spec, path: str, n: int, m: int):
    _require(spec, path, dict, "an object")
    kinds = [k for k in spec if k in _BODY_KINDS]
    if len(kinds) != 1 or len(spec) != 1:
        raise _fail(
            path, f"expected exactly one body kind among {', '.join(_BODY_KINDS)}"
        )
    kind = kinds[0]
    body_spec = _require(spec[kind], f"{path}.{kind}", dict, "an object")
    return _BODY_BUILDERS[kind](body_spec, f"{path}.{kind}", n, m)


# --- domain -----------------------------------------------------------------


def build_domain(spec, path: str, n: int) -> Domain:
    _require(spec, path, dict, "an object")
    _reject_unknown(spec, path, ("boxes", "points"))
    boxes = []
    boxes_spec = _require(spec.get("boxes", []), f"{path}.boxes", list, "a list of boxes")
    for i, box in enumerate(boxes_spec):
        bpath = f"{path}.boxes[{i}]"
        _require(box, bpath, dict, "an object")
        _reject_unknown(box, bpath, ("lo", "hi"))
        lo = _number_list(box.get("lo"), f"{bpath}.lo", n)
        hi = _number_list(box.get("hi"), f"{bpath}.hi", n)
        if any(a > b for a, b in zip(lo, hi)):
            raise _fail(bpath, "box has lo > hi")
        boxes.append((lo, hi))
    points_spec = _require(spec.get("points", []), f"{path}.points", list, "a list of points")
    points = [_number_list(p, f"{path}.points[{i}]", n) for i, p in enumerate(points_spec)]
    if not boxes and not points:
        raise _fail(path, "domain needs at least one box or point")
    return Domain(n, tuple(boxes), tuple(points))


# --- whole problems ---------------------------------------------------------


def load_spec_dict(raw: dict, path_label: str = "") -> ProblemSpec:
    """Validate a decoded JSON object and build the runtime problem."""
    _require(raw, "$", dict, "an object")
    _reject_unknown(
        raw, "$", ("ambient_dim", "output_dim", "domain", "strata", "pieces", "tags")
    )
    for key in ("ambient_dim", "output_dim", "domain", "pieces"):
        if key not in raw:
            raise _fail(f"$.{key}", "missing")
    n = _int_at_least(raw["ambient_dim"], "$.ambient_dim", 1)
    m = _int_at_least(raw["output_dim"], "$.output_dim", 1)
    domain = build_domain(raw["domain"], "$.domain", n)

    pieces_spec = _require(raw["pieces"], "$.pieces", list, "a list of pieces")
    if not pieces_spec:
        raise _fail("$.pieces", "needs at least one piece")
    pieces = []
    for i, piece in enumerate(pieces_spec):
        ppath = f"$.pieces[{i}]"
        _require(piece, ppath, dict, "an object")
        _reject_unknown(piece, ppath, ("region", "body"))
        region = build_region(piece.get("region", []), f"{ppath}.region", n)
        if "body" not in piece:
            raise _fail(f"{ppath}.body", "missing")
        rule = build_body_rule(piece["body"], f"{ppath}.body", n, m)
        pieces.append((region, rule))

    tags = raw.get("tags", {})
    _require(tags, "$.tags", dict, "an object")
    _reject_unknown(tags, "$.tags", ("declared_lsc", "declared_continuous"))
    for key, value in tags.items():
        if not isinstance(value, bool):
            raise _fail(f"$.tags.{key}", "expected true or false")

    map_ = SetValuedMap(
        domain,
        m,
        tuple(pieces),
        declared_lsc=bool(tags.get("declared_lsc", False)),
        declared_continuous=bool(tags.get("declared_continuous", False)),
        name=path_label,
    )

    strata_spec = raw.get("strata", [[]])
    _require(strata_spec, "$.strata", list, "a list of regions")
    if not strata_spec:
        raise _fail("$.strata", "needs at least one stratum")
    strata = tuple(
        build_region(atoms, f"$.strata[{j}]", n)
        for j, atoms in enumerate(strata_spec)
    )
    stratification = Stratification(strata)

    _check_coverage(domain, map_, stratification)
    return ProblemSpec(
        ambient_dim=n,
        output_dim=m,
        domain=domain,
        map=map_,
        stratification=stratification,
        raw=raw,
        path=path_label,
    )


def _check_coverage(domain: Domain, map_: SetValuedMap, strat: Stratification):
    """Probe a coarse grid: every point needs a piece and exactly one stratum.

    This catches holes at load time with a concrete witness; the finer
    audits downstream still re-check on the caller's grid.  The check is
    one batch, searched by halves when it fails (``_outermost_many``), so
    the first failing point raises, its piece checked before its strata.
    """
    per_axis = _VALIDATION_PER_AXIS.get(domain.ambient_dim, 5)

    def covered(X):
        map_.evaluate_many(X)
        matches = strat.masks(X).sum(axis=0)
        if np.any(matches != 1):
            i = int(np.argmax(matches != 1))
            x = X[i].tolist()
            if matches[i] == 0:
                raise _fail("$.strata", f"no stratum covers the domain point {x}")
            raise _fail("$.strata", f"{matches[i]} strata overlap at the domain point {x}")
        return matches

    try:
        _outermost_many(covered, Grid(domain, per_axis).points)
    except UncoveredPointError as exc:  # at the first failing point
        raise uncovered(exc.x) from None


def load_spec(path: str) -> ProblemSpec:
    """Read, validate, and build a problem from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SpecValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"{path} is not valid JSON: {exc}") from exc
    return load_spec_dict(raw, path_label=path)
