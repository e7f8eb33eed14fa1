"""The Michael path on arrays against its pointwise oracle, bit for bit.

``SetValuedMap.evaluate_many`` and each body batch are compared with the
bodies the oracle of ``reference.maps_pointwise`` builds one point at a
time; every level's total, glued and extension pass with
:func:`reference.michael_pointwise.pointwise_levels` over that oracle; the
selection, membership and the decay audit with the same oracles.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_same_bits, interval_rule
from convsel.errors import EvalDomainError, InfeasibleBodyError, UncoveredPointError
from convsel.fields import Domain, Grid, VectorField
from convsel.geometry import (
    CONTAINS_TOL,
    Ball,
    BallBatch,
    HPolytope,
    Interval,
    IntervalBatch,
    PolytopeBatch,
    StackedBatch,
    kernel_operators,
    row_norms,
)
from convsel.maps import Region, SetValuedMap, shift
from convsel.selection import boundary_decay_audit, lns_field, michael_select
from convsel.specio.cli import _membership_entry
from convsel.specio.loader import load_spec, load_spec_dict
from golden.capture import fixture_names
from reference import maps_pointwise as pw
from reference import polytope_pointwise
from reference.bodies_pointwise import PointwiseBall, PointwiseInterval, pointwise
from reference.michael_pointwise import lift_vector, membership_pointwise, pointwise_levels

FIXTURES = fixture_names("select-michael")
SIGNED = (0.0, -0.0)
#: The membership slacks every body is checked at.
TOLS = (0.0, CONTAINS_TOL, 1e-7)

# three strata in R^1: an interval off {0, +-1/2}, a one-dimensional
# polytope, smaller, at +-1/2 and a ball at 0
THREE_STRATA_LINE = {
    "ambient_dim": 1,
    "output_dim": 1,
    "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
    "strata": [["0 < abs(x1)", "0 < abs(abs(x1) - 0.5)"],
               ["abs(abs(x1) - 0.5) <= 0"], ["abs(x1) <= 0"]],
    "pieces": [
        {"region": ["0 < abs(x1)", "0 < abs(abs(x1) - 0.5)"],
         "body": {"interval": {"lo": "abs(x1)", "hi": "2"}}},
        {"region": ["0 < abs(x1)"],
         "body": {"hpolytope": {"rows": [{"normal": ["-1"], "offset": "-abs(x1)/2"},
                                         {"normal": ["1"], "offset": "2"}]}}},
        {"region": [], "body": {"ball": {"center": ["1"], "radius": "1"}}},
    ],
    "tags": {"declared_lsc": True},
}

# three strata in R^2: polytopes off the axis x1 = 0, smaller ones on it,
# and a ball at the origin
_R = "x1^2 + x2^2"
THREE_STRATA_PLANE = {
    "ambient_dim": 2,
    "output_dim": 2,
    "domain": {"boxes": [{"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]},
    "strata": [["0 < abs(x1)"], ["abs(x1) <= 0", "0 < abs(x2)"], [f"{_R} <= 0"]],
    "pieces": [
        {"region": ["0 < abs(x1)"],
         "body": {"hpolytope": {"rows": [
             {"normal": ["-1", "0"], "offset": f"{_R} - 1"},
             {"normal": ["0", "-1"], "offset": f"{_R} - 1"},
             {"normal": ["1", "1"], "offset": f"4 + {_R}"}]}}},
        {"region": [f"0 < {_R}"],
         "body": {"hpolytope": {"rows": [
             {"normal": ["-1", "0"], "offset": f"{_R} - 1"},
             {"normal": ["0", "-1"], "offset": f"{_R} - 1"},
             {"normal": ["1", "1"], "offset": f"3.5 + {_R}"}]}}},
        {"region": [], "body": {"ball": {"center": ["1.5", "1.5"], "radius": "0.25"}}},
    ],
    "tags": {"declared_lsc": True},
}

THREE_STRATA = {"line": THREE_STRATA_LINE, "plane": THREE_STRATA_PLANE}


def spec_of(name, specs_dir):
    """The loaded problem, and its map and strata as the pointwise oracle."""
    if name in THREE_STRATA:
        spec = load_spec_dict(json.loads(json.dumps(THREE_STRATA[name])))
    else:
        spec = load_spec(str(specs_dir / f"{name}.json"))
    return spec, *pw.load_pointwise(spec.raw)


def probe_points(domain: Domain, per_axis: int) -> np.ndarray:
    """A grid off the construction lattices of 9 and 17 but for its ends
    and middle, so the extensions run their ratio branch, and the points
    of a grid of 9."""
    return np.vstack([Grid(domain, per_axis).points, Grid(domain, 9).points])


def signed_rows(rng, N: int, m: int) -> np.ndarray:
    """(N, m) values with about a third of the entries signed zeros."""
    Z = rng.standard_normal((N, m))
    zero = rng.random((N, m)) < 0.35
    Z[zero] = rng.choice(SIGNED, size=int(zero.sum()))
    return Z


# --- row_norms ---------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_row_norms_are_each_rows_norm(m):
    rng = np.random.default_rng(m)
    V = signed_rows(rng, 4000, m) * 10.0 ** rng.integers(-6, 6, size=(4000, 1))
    assert_same_bits(row_norms(V), [np.linalg.norm(v) for v in V])


# --- body batches --------------------------------------------------------------


def check_body(body, want, rng):
    """Every query of one body against the same query of ``want``."""
    Z = signed_rows(rng, 6, want.dim)
    assert body.dim == want.dim
    assert_same_bits(body.least_norm(), want.least_norm())
    assert_same_bits(body.project_many(Z), want.project_many(Z))
    assert_same_bits(body.project(Z[0]), want.project(Z[0]))
    assert_same_bits(body.distance(Z[0]), want.distance(Z[0]))
    assert_same_bits(body.coord_bounds(), want.coord_bounds())
    for got, part in zip(body.coord_extremes(), want.coord_extremes(), strict=True):
        assert_same_bits(got, part)
    Y = np.vstack([Z, want.project_many(Z)])  # and points on the boundary
    for tol in TOLS:
        np.testing.assert_array_equal(body.contains_many(Y, tol), want.contains_many(Y, tol))


def check_batch(batch, bodies, rng):
    """Every query of ``batch``, and of each body it gives out, against the
    same query of each body, in closed form for an interval or a ball
    (:func:`reference.bodies_pointwise.pointwise`)."""
    bodies = [pointwise(b) for b in bodies]
    N, m = len(bodies), bodies[0].dim
    Z = signed_rows(rng, N, m)
    C = signed_rows(rng, N, m)
    assert len(batch) == N
    for i in (0, N // 2, N - 1):
        check_body(batch.body(i), bodies[i], rng)
    assert_same_bits(batch.least_norm(), [b.least_norm() for b in bodies])
    assert_same_bits(batch.project(Z), [b.project(z) for b, z in zip(bodies, Z)])
    assert_same_bits(batch.distance(Z), [b.distance(z) for b, z in zip(bodies, Z)])
    lo, hi = batch.coord_bounds()
    assert_same_bits(lo, [b.coord_bounds()[0] for b in bodies])
    assert_same_bits(hi, [b.coord_bounds()[1] for b in bodies])
    for k, got in enumerate(batch.coord_extremes()):
        assert_same_bits(got, [b.coord_extremes()[k] for b in bodies])
    Y = np.stack([Z, batch.project(Z)], axis=1)
    for tol in TOLS:
        np.testing.assert_array_equal(batch.contains(np.arange(N), Y, tol),
                                      [b.contains_many(y, tol) for b, y in zip(bodies, Y)])
    moved = batch.translate(-C)
    shifted = [b.translate(-c) for b, c in zip(bodies, C)]
    assert_same_bits(moved.least_norm(), [b.least_norm() for b in shifted])
    assert_same_bits(moved.project(Z), [b.project(z) for b, z in zip(shifted, Z)])


def test_interval_batch_keeps_signed_zeros():
    # np.clip between array bounds would take the bound on a tie of zeros
    ends = (-np.inf, -1.0, *SIGNED, 1.0, np.inf)
    pairs = [(a, b) for a in ends for b in ends if a <= b and (a != b or np.isfinite(a))]
    lo, hi = np.array(pairs).T
    rng = np.random.default_rng(1)
    for _ in range(5):
        check_batch(IntervalBatch(lo, hi), [PointwiseInterval(a, b) for a, b in pairs], rng)
    for a, b in pairs:
        check_body(Interval(a, b), PointwiseInterval(a, b), rng)
    Z = np.array([[z] for z in SIGNED for _ in pairs])
    batch = IntervalBatch(np.tile(lo, 2), np.tile(hi, 2))
    want = [PointwiseInterval(a, b).project(z) for z, (a, b) in zip(Z, pairs * 2)]
    assert_same_bits(batch.project(Z), want)
    assert_same_bits([Interval(a, b).project(z) for z, (a, b) in zip(Z, pairs * 2)], want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ball_batch_matches_balls(m):
    rng = np.random.default_rng(10 + m)
    C = signed_rows(rng, 60, m)
    r = np.where(rng.random(60) < 0.3, 0.0, rng.random(60) * 2)
    check_batch(BallBatch(C, r), [PointwiseBall(c, s) for c, s in zip(C, r)], rng)
    for c, s in zip(C, r):
        check_body(Ball(c, s), PointwiseBall(c, s), rng)


#: Distances past the boundary, on both sides of each slack in ``TOLS``.
STEPS = np.array([0.0, 5e-10, 2e-9, 5e-8, 2e-7, 1e-6])


def near_boundary(kind: str, rng):
    """A body of ``kind``, its membership oracle ``(Y, tol) -> mask``, and
    points at the distances ``STEPS`` outside it."""
    if kind == "interval":
        want = PointwiseInterval(-0.5, 1.5)
        return Interval(-0.5, 1.5), want.contains_many, np.r_[1.5 + STEPS, -0.5 - STEPS][:, None]
    if kind == "ball":
        c, u = np.array([0.5, -1.0]), rng.standard_normal((4, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        Y = c + (2.0 + STEPS[:, None, None]) * u
        return Ball(c, 2.0), PointwiseBall(c, 2.0).contains_many, Y.reshape(-1, 2)
    # a triangle; its facets' outer normals a_i / |a_i| step away from them
    A, b = np.array([[1.0, 2.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([2.0, 0.5, 0.5])
    foot = np.array([[0.0, 1.0], [-0.5, 0.5], [1.0, -0.5]])  # a point inside facet i
    out = A / np.linalg.norm(A, axis=1, keepdims=True)
    Y = foot + STEPS[:, None, None] * out
    return HPolytope(A, b), lambda Y, tol: polytope_pointwise.members(A, b, Y, tol), Y.reshape(-1, 2)


@pytest.mark.parametrize("kind", ["interval", "ball", "polytope"])
def test_membership_slack_matches_the_oracle(kind):
    # each slack of TOLS takes a different set of the points: the slack
    # reaches the body, its batch and a stack of its batches
    body, want, Y = near_boundary(kind, np.random.default_rng(4))
    masks = set()
    for tol in TOLS:
        mask = want(Y, tol)
        masks.add(tuple(mask))
        np.testing.assert_array_equal(body.contains_many(Y, tol), mask)
        np.testing.assert_array_equal(body._row.contains([0], Y[None], tol), [mask])
        stack = StackedBatch.of_rows([body._row] * 2, body.dim)
        np.testing.assert_array_equal(stack.contains([1, 0], np.stack([Y, Y]), tol), [mask] * 2)
    assert len(masks) == len(TOLS)
    assert body.contains_many(Y).tolist() == list(want(Y, CONTAINS_TOL))


@pytest.mark.parametrize("m,p", [(1, 2), (2, 3), (2, 5), (3, 4), (3, 6)])
def test_polytope_batch_matches_polytopes(m, p):
    rng = np.random.default_rng(100 * m + p)
    for _ in range(10):
        A = rng.standard_normal((p, m))
        if rng.random() < 0.3:
            A[rng.integers(p)] = 0.0  # a vacuous zero row
        interior = signed_rows(rng, 40, m)
        slack = np.where(rng.random((40, p)) < 0.3, 0.0, rng.random((40, p)))
        B = interior @ A.T + slack
        B[:, np.linalg.norm(A, axis=1) == 0] = np.abs(B[:, np.linalg.norm(A, axis=1) == 0])
        sets = kernel_operators(A)
        bodies = [HPolytope(A, b, _sets=sets) for b in B]
        check_batch(PolytopeBatch(A, sets, B), bodies, rng)


def test_polytope_batch_raises_what_the_polytope_raises():
    # an empty row has no kernel member: its polytope's LP confirms it
    A = np.array([[1.0], [-1.0], [0.0]])
    sets = kernel_operators(A)
    B = np.array([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [1.0, 1.0, -1.0]])
    with pytest.raises(InfeasibleBodyError) as batch:
        PolytopeBatch(A, sets, B[:2])
    with pytest.raises(InfeasibleBodyError) as row:
        HPolytope(A, B[1], _sets=sets)
    assert str(batch.value) == str(row.value) == "halfspace system has no solution"
    with pytest.raises(InfeasibleBodyError, match="0 <= b with b < 0"):
        PolytopeBatch(A, sets, B[[0, 2]])


def test_interval_and_ball_batches_raise_the_bodies_errors():
    with pytest.raises(InfeasibleBodyError, match=r"lo=1.0 > hi=0.0"):
        IntervalBatch([0.0, 1.0, np.nan], [1.0, 0.0, 1.0])
    with pytest.raises(InfeasibleBodyError, match="negative radius"):
        BallBatch([[0.0], [np.inf]], [1.0, -1.0])
    with pytest.raises(InfeasibleBodyError, match="must be finite"):
        BallBatch([[0.0], [np.inf]], [1.0, 1.0])


# --- evaluate_many on the fixtures ---------------------------------------------


@pytest.mark.parametrize("name", [*FIXTURES, *THREE_STRATA])
def test_evaluate_many_matches_evaluate(name, specs_dir):
    spec, oracle, _ = spec_of(name, specs_dir)
    P = probe_points(spec.domain, 13 if spec.ambient_dim == 2 else 41)
    bodies = [oracle.evaluate(x) for x in P]
    check_batch(spec.map.evaluate_many(P), bodies, np.random.default_rng(len(name)))
    rng = np.random.default_rng(1)
    for x in P[rng.choice(len(P), 5, replace=False)]:  # a point is a batch of one row
        check_batch(spec.map.evaluate_many(x[None]), [oracle.evaluate(x)], rng)
        assert_same_bits(spec.map.evaluate(x).least_norm(), oracle.evaluate(x).least_norm())


def test_plain_rules_go_row_by_row():
    line = Domain(1, boxes=(((-1.0,), (1.0,)),))
    oracle = pw.PointwiseMap(line, 1, (
        (pw.PointwiseRegion(lambda x: x[0] < 0.0, "x < 0"), lambda x: Interval(x[0], 1.0)),
        (pw.EVERYWHERE, lambda x: Ball([x[0] - 0.5], 0.25)),
    ))
    P = Grid(line, 17).points
    check_batch(oracle.library().evaluate_many(P), [oracle.evaluate(x) for x in P],
                np.random.default_rng(3))


def test_evaluate_many_names_an_uncovered_point():
    line = Domain(1, boxes=(((-1.0,), (1.0,)),))
    map_ = SetValuedMap(line, 1, ((Region("x < 1/2", batch=lambda X: X[:, 0] < 0.5),
                                   interval_rule(0.0, 1.0)),))
    with pytest.raises(UncoveredPointError, match=r"no piece covers \[0.5\]"):
        map_.evaluate_many(Grid(line, 9).points)


def test_a_shifted_map_translates_its_batches(specs_dir, monkeypatch):
    # m_poly's 33-grid: each piece's kernel batch is translated as a
    # whole, where the per-point pieces of the shift built 2,178 polytopes
    spec, oracle, _ = spec_of("m_poly", specs_dir)
    P = Grid(spec.domain, 33).points
    c = np.full(2, -0.25)
    built = [0]
    real_init = HPolytope.__init__

    def init(self, *args, **kwargs):
        built[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(HPolytope, "__init__", init)
    batch = shift(spec.map, c).evaluate_many(P)
    least = batch.least_norm()
    assert built[0] == 0
    # the origin has a piece of its own, so the rows are split in two
    assert [type(part) for _, part in batch.parts] == [PolytopeBatch] * 2
    monkeypatch.undo()
    assert_same_bits(least, [oracle.evaluate(x).translate(-c).least_norm() for x in P])


# --- the levels ------------------------------------------------------------------


@pytest.mark.parametrize("grid", [9, 17])
@pytest.mark.parametrize("name", [*FIXTURES, *THREE_STRATA])
def test_every_level_matches_the_pointwise_construction(name, grid, specs_dir):
    spec, oracle, strata = spec_of(name, specs_dir)
    h, trace = michael_select(spec.map, spec.stratification, resolution=grid)
    assert len(trace.levels) == len(spec.stratification.strata)
    refs = pointwise_levels(oracle, strata, trace.construction_grid)
    P = probe_points(spec.domain, 13 if spec.ambient_dim == 2 else 41)
    for level, ref in zip(trace.levels, refs):
        assert_same_bits(level.total.many(P), [ref.total(x) for x in P])
        if level.kind == "glue":
            assert_same_bits(level.glued.many(P), [ref.glued(x) for x in P])
            assert_same_bits(level.extension.many(P), [ref.extension(x) for x in P])
    assert_same_bits(h.many(P), [refs[-1].total(x) for x in P])
    assert_same_bits([h(x) for x in P[:9]], [refs[-1].total(x) for x in P[:9]])


@pytest.mark.parametrize("name", [*FIXTURES, *THREE_STRATA])
def test_membership_and_decay_match_the_pointwise_readers(name, specs_dir):
    spec, oracle, strata = spec_of(name, specs_dir)
    h, trace = michael_select(spec.map, spec.stratification, resolution=9)
    grid = Grid(spec.domain, 17)
    values = h.many(grid.points)
    entry = _membership_entry(spec.map, values, grid, 1e-7)
    worst, witness = membership_pointwise(oracle, values, grid.points)
    assert entry["worst_distance"] == worst
    assert entry["passed"] == (worst <= 1e-7)
    # h sits a last bit off T at some points: probe a little further out too
    moved = values + 1e-3 * np.sign(values)
    entry = _membership_entry(spec.map, moved, grid, 1e-7)
    worst, witness = membership_pointwise(oracle, moved, grid.points)
    assert entry["worst_distance"] == worst
    if witness is not None and worst > 1e-7:
        assert entry["violations"][0]["x"] == list(witness)
    # the decay audit over the pointwise glue equals the audit over the passes
    refs = pointwise_levels(oracle, strata, trace.construction_grid)
    levels = tuple(
        lv if lv.kind == "base"
        else replace(lv, glued=lift_vector(spec.domain, lv.glued.dim, ref.glued))
        for lv, ref in zip(trace.levels, refs)
    )
    want = boundary_decay_audit(replace(trace, levels=levels), grid)
    assert boundary_decay_audit(trace, grid) == want


def test_signed_zeros_survive_the_glue():
    # T(x) = [-1, -0*x1] on x != 0: the upper end is -0.0 for x > 0, where
    # the least-norm point clips 0.0 to a tie with it and keeps 0.0
    line = Domain(1, boxes=(((-1.0,), (1.0,)),))
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
        "strata": [["0 < abs(x1)"], ["abs(x1) <= 0"]],
        "pieces": [
            {"region": ["0 < abs(x1)"], "body": {"interval": {"lo": "-1", "hi": "-0*x1"}}},
            {"region": [], "body": {"interval": {"lo": "-1", "hi": "0"}}},
        ],
        "tags": {"declared_lsc": True},
    }
    spec = load_spec_dict(raw)
    oracle, strata = pw.load_pointwise(raw)
    h, trace = michael_select(spec.map, spec.stratification, resolution=9)
    refs = pointwise_levels(oracle, strata, trace.construction_grid)
    P = np.vstack([Grid(line, 33).points, [[-0.0]]])
    ends = [oracle.evaluate(x).hi for x in P]
    assert any(e == 0.0 and np.signbit(e) for e in ends)
    assert_same_bits(h.many(P), [refs[-1].total(x) for x in P])
    assert_same_bits(trace.outer.glued.many(P), [refs[-1].glued(x) for x in P])
    base = lns_field(spec.map)
    assert_same_bits(base.many(P), [oracle.evaluate(x).least_norm() for x in P])


# --- errors ----------------------------------------------------------------------


def raised(fn, *args):
    """The type and text of what ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_a_failing_batch_raises_the_first_failing_rows_error():
    # crossed near 23/32, a zero base at 1/32, both off the load-time
    # lattice: the batch meets the base first, the rows in order the crossing
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
        "pieces": [{"region": [], "body": {"interval": {
            "lo": "1 - 100*abs(x1 - 0.71875) + 0*(x1 - 0.03125)^-1", "hi": "0.5"}}}],
        "tags": {"declared_lsc": True},
    }
    spec = load_spec_dict(raw)
    oracle, _ = pw.load_pointwise(raw)
    X = np.array([[0.0], [0.71875], [0.03125], [1.0]])
    h = lns_field(spec.map)
    want = raised(lambda: [oracle.evaluate(x).least_norm() for x in X])
    assert want == (InfeasibleBodyError, "interval has lo=1.0 > hi=0.5")
    assert raised(h.many, X) == want
    assert raised(h.many, X[[0, 2, 1]]) == (EvalDomainError, "cannot raise 0.0 to power -1")
    # the map searches its own rows when it is the outermost batch
    assert raised(spec.map.evaluate_many, X) == want
    assert raised(spec.map.evaluate_many, X[[0, 2, 1]]) == raised(h.many, X[[0, 2, 1]])


def test_a_one_point_field_has_its_batch_rule():
    f = VectorField(None, 2, batch=lambda X: np.column_stack([X[:, 0], -X[:, 0]]))
    assert_same_bits(f([0.5]), [0.5, -0.5])
    assert_same_bits(f.many(np.array([[0.0], [1.0]])), [[0.0, -0.0], [1.0, -1.0]])
    with pytest.raises(TypeError):
        VectorField(None, 2, lambda x: x)
    bad = VectorField(None, 3, batch=lambda X: np.zeros((X.shape[0], 2)), name="short")
    with pytest.raises(Exception, match=r"vector field short returned shape \(2,\)"):
        bad([0.0])
