"""Polytopes with a normal matrix per row against the same bodies built one
point at a time.

A polytope piece whose normals vary with x evaluates to one
``PolytopeBatch`` with normals of shape (N, p, m) and the kernel's
operators stacked over the rows.  The oracle is the per-point build: one
``HPolytope`` per point, each with its own ``kernel_operators``, as the
pointwise map of ``reference.maps_pointwise`` builds it.

Where a row keeps every row subset the stack keeps, and no normal of the
row vanishes, the row's products have the layout of its body alone, and
every answer is the oracle's bit for bit.  Elsewhere the stack holds a
masked subset or a zero normal that the body alone leaves out, BLAS sums
the same terms in another order, and the answers may differ in the last
bits: there the test bounds the difference by ``ULPS`` units of the value.
"""

from __future__ import annotations

import numpy as np
import pytest

from convsel import geometry
from convsel.errors import InfeasibleBodyError
from convsel.fields import Domain, Grid
from convsel.geometry import HPolytope, PolytopeBatch, kernel_operators
from convsel.maps import EVERYWHERE, SetValuedMap
from convsel.specio import loader
from convsel.specio.loader import build_body_rule, load_spec

from conftest import SPECS
from reference.maps_pointwise import load_pointwise

#: The bound, in units of max(1, |value|) * 2^-52, on a difference from the
#: oracle in a row whose layout is not its body's alone.
ULPS = 16


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def normal_stack(rng, case: str):
    """``(A, B)``: N nonempty polytopes with normals per row, offsets about
    a drawn member.  ``case``: "independent" (Gaussian normals), "dependent"
    (row 1 a multiple of row 0 at about half the rows), "vanishing" (row 0
    zero at about half the rows) or "past the limit" (12 rows in R^3)."""
    if case == "past the limit":
        N, p, m = 5, 12, 3
    else:
        m = int(rng.integers(1, 4))
        N, p = 16, int(rng.integers(m + 1, 7))
    A = rng.standard_normal((N, p, m))
    some = rng.random(N) < 0.5
    if case == "dependent":
        A[some, 1] = A[some, 0] * rng.choice([-2.0, -1.0, 0.5, 3.0], size=(some.sum(), 1))
    if case == "vanishing":
        A[some, 0] = 0.0
    c = rng.standard_normal((N, m))
    slack = np.where(rng.random((N, p)) < 0.3, 0.0, rng.random((N, p)))
    return A, np.einsum("npm,nm->np", A, c) + slack


def same_layout(A, sets, i: int) -> bool:
    """Whether row i's products have the layout of its body alone."""
    return (sets is None or sets.keep[i].all()) and bool(np.all(np.linalg.norm(A[i], axis=1)))


def assert_matches(got, want, exact: bool):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if exact:
        assert bits(got) == bits(want)
        return
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(got)], want[np.isinf(want)])
    fin = np.isfinite(got)
    scale = np.maximum(1.0, np.abs(want[fin]))
    assert np.all(np.abs(got[fin] - want[fin]) <= ULPS * np.finfo(float).eps * scale)


@pytest.mark.parametrize("case", ["independent", "dependent", "vanishing", "past the limit"])
@pytest.mark.parametrize("seed", range(6))
def test_a_batch_with_normals_per_row_answers_as_its_bodies_built_one_by_one(case, seed):
    rng = np.random.default_rng(1000 * seed + len(case))
    A, B = normal_stack(rng, case)
    N, p, m = A.shape
    sets = kernel_operators(A)
    assert (sets is None) == (case == "past the limit")
    if case == "dependent" and m > 1:  # some rows drop {0, 1}, the others keep it
        assert 0 < sets.keep.all(axis=1).sum() < N
    batch = PolytopeBatch(A, sets, B)
    Z = rng.standard_normal((N, 7, m)) * 3
    projected = batch.project_rows(np.arange(N), Z)
    inside = batch.contains(np.arange(N), projected)
    least, extremes, box = batch.least_norm(), batch.coord_extremes(), batch.sample_bounds()
    exact = 0
    for i in range(N):
        body = HPolytope(A[i], B[i])  # the per-point build
        if sets is not None:
            own = body._row._sets
            np.testing.assert_array_equal(sets.bounded[i], own.bounded)
            K, live = sets.keep.shape[1], np.linalg.norm(A[i], axis=1) > 0
            for got, want in ((sets.H[i][live], own.H), (sets.P[i], own.P)):
                kept = got.reshape(got.shape[0], K, m)[:, sets.keep[i]]
                assert bits(kept.reshape(want.shape)) == bits(want)
        same = same_layout(A, sets, i)
        exact += same
        assert_matches(projected[i], body.project_many(Z[i]), same)
        assert inside[i].all() and body.contains_many(projected[i]).all()
        assert_matches(least[i], body.least_norm(), same)
        for got, want in zip(extremes, body.coord_extremes()):
            assert_matches(got[i], want, same)
        for got, want in zip(box, body._row.sample_bounds()):
            assert_matches(got[i], want[0], same)
    if case in ("independent", "past the limit"):
        assert exact == N


def test_the_stacked_operators_are_each_matrix_own_bit_for_bit():
    # three rows in R^2 whose first two are parallel at every third matrix:
    # one QR call per subset size over the stack gives each matrix the
    # operators of its own build on the subsets it keeps, and masks the one
    # it drops
    rng = np.random.default_rng(4)
    A = rng.standard_normal((30, 3, 2))
    A[::3, 1] = -2.0 * A[::3, 0]
    sets = kernel_operators(A)
    assert sets.H.shape == (30, 3, 14) and sets.P.shape == (30, 2, 14)
    assert sets.keep[::3, 4].tolist() == [False] * 10 and sets.keep[1::3].all()
    assert np.isfinite(sets.H).all() and np.isfinite(sets.P).all()
    assert not any(a.flags.writeable for a in sets)
    for i in range(30):
        own = kernel_operators(A[i])
        K = 7 if i % 3 else 6
        assert own.H.shape == (3, 2 * K)
        for got, want in ((sets.H[i], own.H), (sets.P[i], own.P)):
            kept = got.reshape(got.shape[0], 7, 2)[:, sets.keep[i]]
            assert bits(kept.reshape(want.shape)) == bits(want)
        assert np.array_equal(sets.bounded[i], own.bounded)


def test_a_row_zero_in_every_matrix_is_dropped_as_one_body_drops_it():
    A = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                  [[2.0, 1.0], [0.0, 0.0], [-1.0, 1.0]]])
    B = np.array([[1.0, 0.5, 1.0], [1.0, 0.0, 2.0]])
    batch = PolytopeBatch(A, kernel_operators(A), B)
    assert batch.A.shape == (2, 2, 2) and batch._sets.H.shape == (2, 2, 8)
    for i in range(2):
        body = HPolytope(A[i], B[i])
        assert bits(batch.body(i).A) == bits(body.A)
        assert bits(batch.least_norm()[i]) == bits(body.least_norm())
    with pytest.raises(InfeasibleBodyError, match="0 <= b with b < 0"):
        PolytopeBatch(A, kernel_operators(A), B - [0.0, 1.0, 0.0])


def test_rows_past_the_kernel_limit_solve_with_their_own_normals(monkeypatch):
    rng = np.random.default_rng(12)
    A, B = normal_stack(rng, "past the limit")
    seen = []
    real = geometry._nearest
    monkeypatch.setattr(geometry, "_nearest", lambda A, *a: seen.append(A) or real(A, *a))
    batch = PolytopeBatch(A, kernel_operators(A), B)
    batch.least_norm()
    assert len(seen) == 2 * len(B)  # the check at construction, then the least-norm point
    for i, a in enumerate(seen[: len(B)]):
        assert bits(a) == bits(A[i])


# -- the loader's pieces ---------------------------------------------------------

#: A piece whose first normal vanishes on the line x1 = 0: the row is
#: vacuous there while its offset is >= 0, and an impossible ``0 <= b``
#: below x2 = -0.5.
VANISHING = {"hpolytope": {"rows": [
    {"normal": ["x1", "0"], "offset": "x2 + 0.5 + 8*abs(x1)"},
    {"normal": ["0", "1"], "offset": "1"},
    {"normal": ["0", "-1"], "offset": "1"},
    {"normal": ["1", "x2/4"], "offset": "2"},
    {"normal": ["-1", "0"], "offset": "2 + x1^2"},
]}}


def vanishing_problem(lo2: float) -> dict:
    return {"ambient_dim": 2, "output_dim": 2,
            "domain": {"boxes": [{"lo": [-1.0, lo2], "hi": [1.0, 1.0]}]},
            "pieces": [{"region": [], "body": VANISHING}]}


def test_a_normal_that_vanishes_at_some_points_answers_as_the_oracle():
    raw = vanishing_problem(-0.5)  # the offset of the vanishing row is >= 0 throughout
    oracle, _ = load_pointwise(raw)
    map_ = SetValuedMap(Domain(2, boxes=(((-1.0, -0.5), (1.0, 1.0)),)), 2,
                        ((EVERYWHERE, build_body_rule(VANISHING, "$", 2, 2)),))
    X = Grid(map_.domain, 17).points
    bodies = map_.evaluate_many(X)
    assert isinstance(bodies, PolytopeBatch) and bodies.A.shape == (len(X), 5, 2)
    Z = np.random.default_rng(3).standard_normal((len(X), 5, 2)) * 3
    projected = bodies.project_rows(np.arange(len(X)), Z)
    extremes = bodies.coord_extremes()
    vanished = X[:, 0] == 0.0
    assert vanished.sum() == 17
    for i, x in enumerate(X):
        body = oracle.evaluate(x)
        assert body.A.shape == ((4, 2) if vanished[i] else (5, 2))
        assert_matches(projected[i], body.project_many(Z[i]), not vanished[i])
        for got, want in zip(extremes, body.coord_extremes()):
            assert_matches(got[i], want, not vanished[i])
        for y in (Z[i, 0], projected[i, 0]):  # outside, then on the boundary
            assert_matches(bodies.body(i).boundary_margin(y), body.boundary_margin(y),
                           not vanished[i])


def test_a_normal_that_vanishes_where_its_offset_is_negative_fails_at_the_first_such_row():
    raw = vanishing_problem(-1.0)
    oracle, _ = load_pointwise(raw)
    map_ = SetValuedMap(Domain(2, boxes=(((-1.0, -1.0), (1.0, 1.0)),)), 2,
                        ((EVERYWHERE, build_body_rule(VANISHING, "$", 2, 2)),))
    X = Grid(map_.domain, 17).points
    first = None
    for i, x in enumerate(X):
        try:
            oracle.evaluate(x)
        except InfeasibleBodyError as exc:
            first, message = i, str(exc)
            break
    assert first is not None and X[first].tolist() == [0.0, -1.0]
    assert message == "constraint 0 <= b with b < 0"
    with pytest.raises(InfeasibleBodyError) as info:
        map_.evaluate_many(X)
    assert str(info.value) == message
    assert len(map_.evaluate_many(X[:first])) == first  # every earlier row passes
    with pytest.raises(InfeasibleBodyError, match="0 <= b with b < 0"):
        map_.evaluate_many(X[first : first + 1])


def test_a_grid_of_m_rotate_builds_one_operator_stack_and_no_body(monkeypatch):
    # the per-point build must not come back: one kernel_operators call for
    # the grid's one batch, and no HPolytope, in the evaluation or in the
    # queries on the batch
    spec = load_spec(str(SPECS / "m_rotate.json"))
    grid = Grid(spec.domain, 33)
    N, stacks, built = len(grid), [], []
    real_ops, real_init = loader.kernel_operators, HPolytope.__init__
    monkeypatch.setattr(loader, "kernel_operators", lambda A: stacks.append(A.shape) or real_ops(A))
    monkeypatch.setattr(HPolytope, "__init__",
                        lambda self, *a, **k: built.append(1) or real_init(self, *a, **k))
    bodies = spec.map.evaluate_many(grid.points)
    assert stacks == [(N, 3, 2)] and isinstance(bodies, PolytopeBatch)
    bodies.project_rows(np.arange(N), np.zeros((N, 4, 2)))
    bodies.coord_extremes()
    bodies.sample_bounds()
    bodies.translate(np.ones((N, 2))).least_norm()
    assert stacks == [(N, 3, 2)] and built == []


# -- one point per row, as each body alone ----------------------------------------


def strip_bodies(count: int):
    """The thin strip of ``tests/test_hypothesis_audits.py``'s top-up test,
    shifted to ``count`` places: shared normals."""
    A = np.array([[0.0, -1.0], [1.0, -2.0], [-1.0, 2.0]])
    b = np.array([-1.0, -2.0, 2.01])
    shift = np.random.default_rng(2).uniform(-1, 1, size=(count, 2))
    return PolytopeBatch(A, kernel_operators(A), np.tile(b, (count, 1))).translate(shift)


def rotating_bodies(count: int):
    """``m_rotate``'s bodies at ``count`` drawn points: normals per row."""
    spec = load_spec(str(SPECS / "m_rotate.json"))
    X = np.random.default_rng(5).uniform(-1, 1, size=(count, 2))
    return spec.map.evaluate_many(X)


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("make", [strip_bodies, rotating_bodies], ids=["shared", "per-row"])
def test_one_point_per_row_projects_as_each_body_alone(make, layout):
    # PolytopeBatch._candidates: row n of a stacked query is what body
    # rows[n] gives alone for the block Z[n], whatever R and the block's
    # memory layout are
    N = 400
    bodies = make(N)
    rng = np.random.default_rng(7)
    Z = rng.uniform(-4, 4, size=(N, 1, 2)) * 10.0 ** rng.uniform(-3, 2, size=(N, 1, 1))
    rows = rng.permutation(N)
    Zq = np.asfortranarray(Z[rows]) if layout == "F" else Z[rows]
    got = bodies.project_rows(rows, Zq)
    for n, i in enumerate(rows):
        alone = bodies.body(i)
        assert bits(got[n, 0]) == bits(alone.project(Z[i, 0]))
        assert bits(got[n]) == bits(bodies.take([i]).project_rows([0], Z[i][None])[0])
