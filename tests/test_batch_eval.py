"""Array evaluation of fields: ``ScalarField.many`` against ``__call__``
and against the pointwise oracles of ``reference.fields_pointwise``.

Every batch rule must give the values of its pointwise formula bit for
bit (signed zeros included), and a batch must fail the way the pointwise
loop fails: the same exception type, raised at the first point that fails.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_bits
from convsel import urysohn
from convsel.errors import DimensionMismatchError, IndeterminateSumError
from convsel.fields import (
    TAG_CONTINUOUS,
    Domain,
    Grid,
    ScalarField,
    VectorField,
    add,
    compress_field,
    constant_field,
    grid_values,
    negate,
    pymax,
    pymin,
    squash,
    unsquash,
)
from convsel.urysohn import ClosedSet, dist_field, tietze_extend
from reference.fields_pointwise import dist_pointwise, lift, nested_min, tietze_pointwise

LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))
SQUARE = Domain(2, boxes=(((-1.0, -1.0), (1.0, 1.0)),))


def pointwise(field, X) -> np.ndarray:
    return np.array([field(x) for x in X])


def plain(domain, fn, tag=TAG_CONTINUOUS):
    return lift(domain, fn, tag=tag)


POINTS = np.linspace(-1.0, 1.0, 41).reshape(-1, 1)


class TestScalarFieldMany:
    def test_plain_field_loops_over_call(self):
        calls = []
        f = plain(LINE, lambda x: calls.append(1) or float(np.sin(3.0 * x[0])))
        assert_same_bits(f.many(POINTS), [math.sin(3.0 * x) for x in POINTS[:, 0]])
        assert len(calls) == POINTS.shape[0]

    def test_rejects_flat_arrays(self):
        with pytest.raises(DimensionMismatchError):
            constant_field(LINE, 1.0).many(np.zeros(3))

    def test_empty_batch(self):
        assert constant_field(LINE, 2.0).many(np.empty((0, 1))).shape == (0,)

    def test_combinators_match_pointwise(self):
        f = plain(LINE, lambda x: x[0] ** 3 - 0.25)
        g = plain(LINE, lambda x: -0.0 if x[0] < 0 else 0.0)  # signed zeros
        for field in (
            constant_field(LINE, -0.0),
            constant_field(LINE, math.inf),
            negate(f),
            negate(g),
            add(f, g),
            add(negate(f), constant_field(LINE, 0.25)),
            compress_field(f),
            compress_field(add(f, constant_field(LINE, 1e8))),
            compress_field(constant_field(LINE, -math.inf)),
        ):
            assert_same_bits(field.many(POINTS), pointwise(field, POINTS))

    def test_compress_field_squashes_like_squash(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([
            rng.uniform(-1.0, 1.0, 4000) * 10.0 ** rng.integers(-300, 301, 4000),
            rng.integers(1, 10**6, 100) * 5e-324,
            [0.0, -0.0, math.inf, -math.inf, 2.2250738585072014e-308, 1.7976931348623157e308],
        ])
        squashed = compress_field(ScalarField(LINE, batch=lambda X: values.copy()))
        want = [squash(v) for v in values.tolist()]
        assert_same_bits(squashed.many(np.zeros((values.size, 1))), want)

    def test_grid_values_uses_the_batch_rule(self):
        calls = []

        def batch(X):
            calls.append(X.shape[0])
            return X[:, 0] * 2.0

        f = ScalarField(LINE, batch=batch)
        grid = Grid(LINE, 9)
        assert_same_bits(grid_values(f, grid), grid.points[:, 0] * 2.0)
        assert calls == [9]

    def test_opposite_infinities_raise_at_the_first_bad_point(self):
        # f + g is (+inf) + (-inf) at the third point only
        f = plain(LINE, lambda x: math.inf if x[0] == 0.0 else 1.0)
        g = plain(LINE, lambda x: -math.inf if x[0] >= 0.0 else 2.0)
        s = add(f, g)
        X = np.array([[-1.0], [-0.5], [0.0], [0.5]])
        with pytest.raises(IndeterminateSumError, match=r"\(\+inf\) \+ \(-inf\)"):
            s([0.0])
        with pytest.raises(IndeterminateSumError, match=r"\(\+inf\) \+ \(-inf\)"):
            s.many(X)

    def test_a_pointwise_rule_in_the_old_position_is_refused(self):
        with pytest.raises(TypeError):
            ScalarField(LINE, lambda x: x[0])
        with pytest.raises(TypeError):
            ScalarField(LINE, lambda x: x[0], tag=TAG_CONTINUOUS)
        assert not hasattr(ScalarField(LINE, batch=lambda X: X[:, 0]), "rule")

    def test_a_failing_batch_raises_the_first_failing_rows_error(self):
        # the whole batch fails with one error; one row at a time, the
        # rows fail first at x = 0.5 with another
        def batch(X):
            if X.shape[0] > 1:
                raise IndeterminateSumError("whole batch")
            if X[0, 0] == 0.5:
                raise ZeroDivisionError("row")
            return X[:, 0]

        f = ScalarField(LINE, batch=batch)
        with pytest.raises(ZeroDivisionError, match="row"):
            f.many(np.array([[0.0], [0.5], [1.0]]))
        assert_same_bits(f.many(np.array([[0.0], [1.0]])), [0.0, 1.0])

    def test_an_inner_many_leaves_the_search_to_the_outer_batch(self):
        def named(X):
            bad = X[:, 0] > 0.5
            if bad.any():
                raise ValueError(f"bad at {X[np.argmax(bad), 0]}")
            return X[:, 0]

        inner = ScalarField(LINE, batch=named)
        X = np.linspace(-1.0, 1.0, 9)[:, None]

        # inside another batch it is that batch's error: the outer search
        # still names an earlier row that fails in a later step
        def outer_rule(X):
            values = inner.many(X)
            if (X[:, 0] < -0.5).any():
                raise ValueError("outer")
            return values

        with pytest.raises(ValueError, match="outer"):
            ScalarField(LINE, batch=outer_rule).many(X)

    def test_nan_from_a_batch_raises_like_call(self):
        f = ScalarField(LINE, batch=lambda X: np.full(len(X), math.nan))
        with pytest.raises(ValueError, match="NaN"):
            f.many(POINTS)


def wrong_batches(kind):
    """Fields of ``kind`` ("scalar" or "vector", m = 2) whose batch has a
    wrong shape, one row too many, or NaN at the row x = 0.5, with the
    error each must raise."""
    tail = () if kind == "scalar" else (2,)

    def field(batch):
        if kind == "scalar":
            return ScalarField(LINE, batch=batch, name="bad")
        return VectorField(LINE, 2, batch=batch, name="bad")

    def nan_at_half(X):
        out = np.zeros((X.shape[0], *tail))
        out[X[:, 0] == 0.5] = math.nan
        return out

    return [
        (field(lambda X: np.zeros((X.shape[0], 3))), DimensionMismatchError),
        (field(lambda X: np.zeros((X.shape[0] + 1, *tail))), DimensionMismatchError),
        (field(nan_at_half), ValueError),
    ]


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_both_kinds_refuse_a_wrong_shape_and_nan(kind):
    X = np.array([[0.0], [0.5], [1.0]])
    for bad, error in wrong_batches(kind):
        with pytest.raises(error, match="bad"):
            bad([0.5])
        with pytest.raises(error, match="bad"):
            bad.many(X)
        # inside another field's batch, the outer search finds the same error
        outer = ScalarField(LINE, batch=lambda X: np.sum(bad.many(X).reshape(X.shape[0], -1), 1))
        with pytest.raises(error, match="bad"):
            outer.many(X)
        with pytest.raises(error, match="bad"):
            outer([0.5])
    good = VectorField(LINE, 2, batch=lambda X: np.column_stack([X[:, 0], -X[:, 0]]))
    assert_same_bits(good.many(X), [good(x) for x in X])


def test_pymin_pymax_pick_like_python():
    values = [-0.0, 0.0, -1.5, 2.0, -math.inf, math.inf]
    a, b = (np.array(v) for v in zip(*[(x, y) for x in values for y in values]))
    assert_same_bits(pymin(a, b), [min(x, y) for x, y in zip(a.tolist(), b.tolist())])
    assert_same_bits(pymax(a, b), [max(x, y) for x, y in zip(a.tolist(), b.tolist())])


def cloud_cases():
    rng = np.random.default_rng(7)
    return {
        "line": ClosedSet.from_cloud(np.linspace(-0.8, 0.6, 9).reshape(-1, 1)),
        "plane": ClosedSet.from_cloud(rng.uniform(-1, 1, size=(23, 2))),
        # more floats than one block of the element budget
        "large": ClosedSet.from_cloud(rng.uniform(-1, 1, size=(9000, 1))),
    }


@pytest.fixture(params=sorted(cloud_cases()))
def cloud(request):
    return cloud_cases()[request.param]


def queries(A: ClosedSet) -> np.ndarray:
    """Random points plus every cloud point, so the snap branch is hit."""
    rng = np.random.default_rng(11)
    n = A.ambient_dim
    X = np.vstack([rng.uniform(-1.2, 1.2, size=(150, n)), np.asarray(A.points)[:200]])
    return X[rng.permutation(X.shape[0])]


class TestDistanceBatch:
    def test_dist_field_matches_pointwise(self, cloud):
        X = queries(cloud)
        d = dist_field(cloud)
        assert_same_bits(d.many(X), [dist_pointwise(cloud, x) for x in X])

    def test_dist_many_is_independent_of_blocking(self, cloud):
        X = queries(cloud)
        rows = np.vstack([cloud.dist_many(x.reshape(1, -1)) for x in X]).reshape(-1)
        assert_same_bits(cloud.dist_many(X), rows)

    def test_boxes_and_points(self):
        A = ClosedSet(2, boxes=(((0.0, 0.0), (0.5, 0.25)),), points=((-0.5, 0.5),))
        X = queries(ClosedSet.from_cloud(np.array([[0.25, 0.125], [-0.5, 0.5]])))
        d = dist_field(A)
        assert_same_bits(d.many(X), [dist_pointwise(A, x) for x in X])


class TestTietzeBatch:
    def test_cloud_extension_matches_pointwise(self, cloud):
        X = queries(cloud)
        data = lambda p: float(np.cos(4.0 * p[0]) + p[-1] ** 2)
        F = tietze_extend(lift(None, data), cloud)
        assert_same_bits(F.many(X), pointwise(tietze_pointwise(data, cloud), X))

    def test_snapped_points_return_the_baked_values(self):
        pts = np.linspace(-1.0, 1.0, 17).reshape(-1, 1)
        A = ClosedSet.from_cloud(pts)
        F = tietze_extend(lift(None, lambda p: float(p[0] ** 2)), A)
        near = pts + 1e-13  # within the membership snap of the cloud
        assert_same_bits(F.many(pts), pts[:, 0] ** 2)
        ref = tietze_pointwise(lambda p: float(p[0] ** 2), A)
        assert_same_bits(F.many(near), pointwise(ref, near))

    def test_values_are_baked_in_place_of_calls(self):
        A = ClosedSet.from_cloud(np.array([[0.0], [0.5], [1.0]]))
        values = np.array([0.25, -1.0, 2.0])
        F = tietze_extend(lift(None, lambda p: pytest.fail("f was called")), A, values=values)
        G = tietze_extend(lift(None, lambda p: float(values[int(round(2 * p[0]))])), A)
        X = np.linspace(-1.0, 2.0, 31).reshape(-1, 1)
        assert_same_bits(F.many(X), G.many(X))
        assert_same_bits(F.many(X), pointwise(tietze_pointwise(None, A, values=values), X))

    def test_values_must_match_the_cloud(self):
        A = ClosedSet.from_cloud(np.array([[0.0], [0.5]]))
        with pytest.raises(DimensionMismatchError):
            tietze_extend(None, A, values=[1.0])


    def test_box_components_match_the_formula(self):
        # rows off A, on the box (where f is read), at the cloud point and
        # within the snap of it
        A = ClosedSet(1, boxes=(((0.0,), (0.5,)),), points=((0.9,),))
        data = lambda p: float(np.sin(5.0 * p[0]))
        X = np.vstack([np.linspace(-1.0, 1.0, 9).reshape(-1, 1), [[0.9], [0.9 + 1e-13]]])
        for lo, hi in ((-1.0, 1.0), (None, None)):
            F = tietze_extend(lift(None, data), A, lo=lo, hi=hi)
            assert_same_bits(F.many(X), pointwise(tietze_pointwise(data, A, lo, hi), X))
            assert_same_bits([F(x) for x in X], F.many(X))

    def test_box_components_need_f(self):
        A = ClosedSet(1, boxes=(((0.0,), (1.0,)),), points=((3.0,),))
        with pytest.raises(ValueError, match="box components needs f"):
            tietze_extend(None, A, values=[1.0])

    def test_constant_data_gives_a_constant_batch(self):
        A = ClosedSet.from_cloud(np.array([[0.0], [0.5]]))
        F = tietze_extend(lift(None, lambda p: 0.75), A)
        assert_same_bits(F.many(POINTS), np.full(POINTS.shape[0], 0.75))

    def test_constant_data_keeps_the_signs_of_its_zeros_on_the_cloud(self):
        A = ClosedSet.from_cloud(np.array([[0.0], [0.5]]))
        F = tietze_extend(None, A, values=[0.0, -0.0])
        P = np.array([[0.0], [0.5], [0.25], [1.0]])
        values = F.many(P)
        assert_same_bits(values[:2], [0.0, -0.0])
        assert_same_bits(values, [F(x) for x in P])
        assert np.all(values[2:] == 0.0)

    def test_memory_stays_within_the_element_budget(self):
        cloud = ClosedSet.from_cloud(np.linspace(-1.0, 1.0, 2049).reshape(-1, 1))
        F = tietze_extend(lift(None, lambda p: float(p[0] ** 3)), cloud)
        X = np.linspace(-1.0, 1.0, 8193).reshape(-1, 1) + 1e-6
        tracemalloc.start()
        try:
            F.many(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# --- the box search, every row at once, against the per-point search ------


def box_data(X):
    """Data whose least value over a box lies on an edge of some boxes and
    inside others (at x1 = 0.675 on the flat boxes)."""
    return (X[:, 0] - 0.8) ** 2 - 0.5 * X[:, 0] * X[:, -1] + 0.3 * X[:, -1]


#: Two boxes and isolated points in R^1, R^2 and R^3; in R^2 and R^3 one
#: box is flat along an axis.
BOX_SETS = [
    ClosedSet(1, boxes=(((0.0,), (0.5,)), ((0.75,), (1.0,))), points=((1.5,), (-0.5,))),
    ClosedSet(2, boxes=(((0.0, 0.0), (0.5, 0.25)), ((0.6, -0.5), (1.0, -0.5))),
              points=((-0.5, 0.5), (1.2, 1.0))),
    ClosedSet(3, boxes=(((0.0, 0.0, 0.0), (0.5, 0.25, 0.5)), ((0.6, -0.5, 0.2), (1.0, -0.1, 0.2))),
              points=((-0.5, 0.5, 0.1),)),
]


def box_queries(A: ClosedSet, count: int) -> np.ndarray:
    """Drawn points about A, points of its boxes (read from the data), its
    isolated points, and points within the snap of them."""
    n = A.ambient_dim
    rng = np.random.default_rng(count + n)
    drawn = rng.uniform(-1.0, 1.5, size=(count, n))
    on = np.array([0.5 * (lo + hi) for lo, hi in A.boxes] + [A.boxes[0][1]])
    return np.vstack([drawn, on, A.points, A.points + 1e-13])


class TestBoxSearch:
    @pytest.mark.parametrize("A, count", zip(BOX_SETS, (24, 14, 6)), ids=["1D", "2D", "3D"])
    def test_box_extensions_match_the_per_point_search(self, A, count):
        data = ScalarField(None, batch=box_data)
        X = box_queries(A, count)
        for lo, hi in ((None, None), (-2.0, 1.5)):
            F = tietze_extend(data, A, lo=lo, hi=hi)
            want = pointwise(tietze_pointwise(data, A, lo, hi), X)
            assert_same_bits(F.many(X), want)
            assert_same_bits(F.many(X[::-1]), want[::-1])

    @pytest.mark.parametrize("lo, hi", [
        ((0.6, -0.5), (1.0, -0.5)),  # flat along x2: a zero step there
        ((0.0, 0.0), (0.5, 0.25)),
        ((0.6, -0.5, 0.2), (1.0, -0.1, 0.2)),
        ((2.0**20 - 1.4e-8,), (2.0**20 + 3.3e-8,)),  # some cells flat by rounding alone
    ])
    def test_each_search_is_the_per_point_search_bit_for_bit(self, lo, hi):
        # squared distances to targets outside the box (the search clipped at
        # an edge), inside it, and at a point of the first lattice that a
        # zero step elsewhere would move by an ulp (x1 = 0.88)
        lo, hi = np.array(lo), np.array(hi)
        rng = np.random.default_rng(lo.size)
        targets = np.vstack([lo - 0.3, hi + 0.1, 0.5 * (lo + hi), rng.uniform(lo, hi, (5, lo.size)),
                             np.where(lo == hi, lo, 0.88)])
        got = urysohn._nested_min(
            lambda live, L: np.sum((L - targets[live, None]) ** 2, axis=2), lo, hi, len(targets))
        want = [nested_min(lambda a: float(np.sum((a - t) ** 2)), lo, hi) for t in targets]
        assert_same_bits(got, want)

    def test_the_search_reads_the_data_once_per_step_of_each_box(self, monkeypatch):
        A = BOX_SETS[1]
        reads = []
        data = ScalarField(None, batch=lambda X: reads.append(X.shape[0]) or box_data(X))
        monkeypatch.setattr(ScalarField, "__call__", lambda self, x: pytest.fail("one point read"))
        steps, read = [], urysohn._read
        monkeypatch.setattr(urysohn, "_read", lambda f, L: steps.append(L.shape[0]) or read(f, L))
        F = tietze_extend(data, A)
        # the cloud in one read, then each box's bounds: two searches at once
        assert reads[0] == len(A.points) and steps[:2] == [2, 2]
        assert len(reads) == 1 + len(steps)
        X = box_queries(A, 40)
        reads.clear(), steps.clear()
        values = F.many(X)
        off = int(np.sum(A.dist_many(X) > urysohn.MEMBERSHIP_SNAP))
        missed = len(A.boxes) + 1  # the points of the boxes
        assert reads[0] == missed and len(reads) == 1 + len(steps)
        # each box's steps: every row off the snap, then those still searching,
        # fewer where a search has ended
        starts = [i for i in range(1, len(steps)) if steps[i] > steps[i - 1]]
        assert len(starts) == len(A.boxes) - 1
        for run in np.split(np.array(steps), starts):
            assert run[0] == off and np.all(np.diff(run) <= 0) and 0 < run[-1] < off
        monkeypatch.undo()  # the oracle reads one point at a time
        assert_same_bits(values, pointwise(tietze_pointwise(data, A), X))

    def test_the_search_holds_one_block_of_rows_at_a_time(self):
        # the lattices of a block of rows, not of every row: 4x the rows
        # adds only the arrays of one value per row to the peak
        A = ClosedSet(3, boxes=(((0.0, 0.0, 0.0), (0.5, 0.25, 0.5)),))
        F = tietze_extend(ScalarField(None, batch=box_data), A)
        peaks = []
        for rows in (130, 520):
            X = np.random.default_rng(rows).uniform(0.6, 1.5, size=(rows, 3))
            tracemalloc.start()
            try:
                F.many(X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0]


# --- the slab kernel against the full scans of the oracles ----------------


def assert_matches_the_full_scan(A: ClosedSet, X, values, lo=None, hi=None):
    """``dist_many`` and the extension of ``values`` from A's points,
    batch and one row at a time, equal the pointwise oracles bit for bit."""
    X = np.asarray(X, dtype=float)
    assert_same_bits(A.dist_many(X), [dist_pointwise(A, x) for x in X])
    F = tietze_extend(None, A, lo=lo, hi=hi, values=values)
    want = pointwise(tietze_pointwise(None, A, lo, hi, values=values), X)
    assert_same_bits(F.many(X), want)
    assert_same_bits([F(x) for x in X], want)


def count_pairs(monkeypatch) -> list:
    """The number of (query, cloud point) pairs of each call of the pair
    distance helper, from now on."""
    sizes, gaps = [], urysohn._gaps

    def counted(P, C):
        out = gaps(P, C)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(urysohn, "_gaps", counted)
    return sizes


class TestSlabKernel:
    def test_ties_go_to_the_first_cloud_index(self):
        # duplicates, and points at equal gaps on both sides of the query,
        # listed against their sorted order
        A = ClosedSet.from_cloud([[0.5], [0.0], [0.5], [1e-13], [-1e-13], [0.0]])
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        F = tietze_extend(None, A, values=values)
        assert_same_bits(F.many(np.array([[0.5], [0.0], [0.5 + 1e-13]])), [1.0, 2.0, 1.0])
        plane = ClosedSet.from_cloud([[0.0, 5e-13], [5e-13, 0.0], [0.0, -5e-13], [-5e-13, 0.0]])
        G = tietze_extend(None, plane, values=[4.0, 3.0, 2.0, 1.0])
        assert_same_bits(G.many(np.zeros((1, 2))), [4.0])
        X = np.linspace(-0.25, 0.75, 41).reshape(-1, 1)
        assert_matches_the_full_scan(A, np.vstack([X, A.points, [[5e-14]]]), values)
        assert_matches_the_full_scan(plane, np.zeros((1, 2)), [4.0, 3.0, 2.0, 1.0])

    def test_a_cloud_on_one_key_is_scanned_whole_in_chunks(self, monkeypatch):
        # every point on one key: each query's slab is the whole cloud, more
        # floats than the budget, so each row is a chunk of its own
        rng = np.random.default_rng(5)
        one_key = ClosedSet.from_cloud(np.tile([0.25, -0.5], (5000, 1)))
        X = np.vstack([rng.uniform(-1, 1, size=(12, 2)), [[0.25, -0.5]]])
        sizes = count_pairs(monkeypatch)
        assert_matches_the_full_scan(one_key, X, rng.uniform(-1, 1, 5000))
        assert max(sizes) == 5000 and sizes.count(5000) >= 2 * X.shape[0]
        # a cross: half its points on the key 0 of the sorted axis, so that
        # each slab near the centre holds them all, two rows fill a chunk
        # and the chunks split between rows
        t = np.linspace(-1.0, 1.0, 1501)
        arms = [np.column_stack([0 * t, t]), np.column_stack([t, 0 * t])]
        cross = ClosedSet.from_cloud(np.vstack(arms))
        X = np.column_stack([rng.uniform(-0.001, 0.001, 9), np.zeros(9)])
        sizes.clear()
        assert_matches_the_full_scan(cross, X, np.cos(np.arange(3002.0)))
        assert 1501 < max(sizes) <= 4096 < sum(sizes)

    def test_gaps_of_one_ulp_a_million_out(self):
        ulp = np.spacing(1e6)
        steps = np.array([0.0, 1.0, 3.0, 4.0, 7.0, 8.0, 12.0, -2.0])
        line = ClosedSet.from_cloud((1e6 + ulp * steps).reshape(-1, 1))
        X = (1e6 + ulp * np.arange(-4.0, 15.0)).reshape(-1, 1)
        values = np.sin(steps)
        assert_matches_the_full_scan(line, X, values)
        assert_matches_the_full_scan(line, -X, values, lo=-2.0, hi=2.0)
        far = ClosedSet.from_cloud(-1e6 - ulp * steps.reshape(-1, 1))
        assert_matches_the_full_scan(far, -X, values)
        plane = ClosedSet.from_cloud(np.column_stack([1e6 + ulp * steps, -1e6 + ulp * steps[::-1]]))
        Y = np.column_stack([X[:, 0], -X[::-1, 0]])
        assert_matches_the_full_scan(plane, Y, values)

    def test_gaps_whose_squares_underflow(self):
        steps = np.array([3.0, 0.0, 5.0, 1.0, 2.0])
        X = np.array([-1.0, 0.0, 0.5, 1.0, 2.5, 4.0, 6.0, 1e8, 1e10]).reshape(-1, 1)
        values = [0.5, -1.0, 2.0, 0.25, -0.0]
        for gap in (1e-170, 1e-160, 1e-155):
            tiny = ClosedSet.from_cloud((gap * steps).reshape(-1, 1))
            assert_matches_the_full_scan(tiny, gap * X, values)
            with_one = ClosedSet.from_cloud(np.append(gap * steps, 1.0).reshape(-1, 1))
            Y = np.vstack([gap * X, [[0.5], [2.0]]])
            assert_matches_the_full_scan(with_one, Y, values + [3.0])
        plane = ClosedSet.from_cloud(np.column_stack([1e-170 * steps, 0.5 + 1e-170 * steps]))
        Y = np.column_stack([1e-170 * X[:, 0], 0.5 + 0 * X[:, 0]])
        assert_matches_the_full_scan(plane, Y, values)

    def test_one_point_clouds_and_signed_zeros(self):
        X = np.array([[-1.0], [-0.0], [0.0], [1e-13], [2e-12], [2.0]])
        for point in (0.0, -0.0, 0.75):
            A = ClosedSet.from_cloud([[point]])
            for value in (0.0, -0.0, 0.5):
                assert_matches_the_full_scan(A, X, [value], lo=-1.0, hi=1.0)
            assert_same_bits(tietze_extend(None, A, values=[-0.0]).many(X), np.full(6, -0.0))
        # one value, -0.0 at the first of two points on one spot
        A = ClosedSet.from_cloud([[0.5], [0.0], [0.0]])
        F = tietze_extend(None, A, values=[0.0, -0.0, 0.0])
        assert_same_bits(F.many(np.array([[0.0], [1e-13], [0.5], [0.25]])), [-0.0, -0.0, 0.0, 0.0])

    def test_rows_off_the_reals_take_the_whole_cloud(self):
        A = ClosedSet.from_cloud([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]])
        X = np.array(
            [[math.nan, 0.0], [0.0, math.nan], [math.inf, 0.0], [0.0, -math.inf], [1.0, 1.0]]
        )
        full = np.sqrt(((X[:, None, :] - A._cloud[None]) ** 2).sum(axis=2).min(axis=1))
        with np.errstate(invalid="ignore"):  # the slab of an infinite row is inf - inf
            assert_same_bits(A.dist_many(X), full)
        # a NaN row among them leaves each snapped row its own point's zero
        F = tietze_extend(None, A, values=[0.0, -0.0, 0.0])
        values = F.many(np.array([[math.nan, 0.0], [2.0, -1.0], [0.5, 0.5]]))
        assert values[0] == 0.0
        assert_same_bits(values[1:], [-0.0, 0.0])

    def test_points_off_the_reals_are_refused(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="points must be finite"):
                ClosedSet.from_cloud([[0.0, 1.0], [bad, 0.0]])

    def test_the_slabs_prune_the_pairs(self, monkeypatch):
        # a 1,026-point cloud at 8,193 queries: a full scan takes 8.4M pairs
        cloud = np.linspace(-1.0, 1.0, 2051)[::2].reshape(-1, 1)
        A = ClosedSet.from_cloud(cloud)
        F = tietze_extend(None, A, values=np.sin(7.0 * cloud[:, 0]))
        X = np.linspace(-1.0, 1.0, 8193).reshape(-1, 1)
        sizes = count_pairs(monkeypatch)
        for batch in (A.dist_many, F.many):
            sizes.clear()
            batch(X)
            assert 0 < sum(sizes) <= 0.05 * cloud.shape[0] * X.shape[0]


COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 1e-13, -3e-13, 1e-170]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drawn_clouds_match_the_full_scan(data):
    n = data.draw(st.integers(1, 3))
    point = st.lists(COORDS, min_size=n, max_size=n)
    pts = np.array(data.draw(st.lists(point, min_size=1, max_size=30)), dtype=float)
    values = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(pts), max_size=len(pts)))
    lo, hi = data.draw(st.sampled_from([(None, None), (-5.0, 5.0)]))
    if lo is None and min(values) == max(values):
        lo, hi = -5.0, 5.0
    nudge = data.draw(st.sampled_from([0.0, 1e-13, -1e-12, 1e-6, 0.3]))
    drawn = np.array(data.draw(st.lists(point, max_size=12)), dtype=float).reshape(-1, n)
    X = np.vstack([drawn, pts, pts + nudge])
    assert_matches_the_full_scan(ClosedSet.from_cloud(pts), X, values, lo, hi)
    if data.draw(st.booleans()):
        corner = np.array(data.draw(point))
        A = ClosedSet(n, boxes=((corner, corner + 0.25),), points=tuple(pts))
        assert_same_bits(A.dist_many(X), [dist_pointwise(A, x) for x in X])


def test_squash_and_unsquash_take_arrays_with_the_scalar_bits():
    # the scalar rules as they read one value at a time
    def squash_one(v):
        return math.copysign(1.0, v) if math.isinf(v) else v / math.hypot(1.0, v)

    def unsquash_one(w):
        return w / math.sqrt((1.0 - w) * (1.0 + w))

    values = np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                       2.2250738585072014e-308, 1e300, -1e300, 0.7, -3.0])
    squashed = squash(values)
    assert_same_bits(squashed, [squash_one(v) for v in values.tolist()])
    assert_same_bits(squash(values.reshape(-1, 1)), squashed.reshape(-1, 1))
    for v in values.tolist():
        assert type(squash(v)) is float
        assert_same_bits(squash(v), squash_one(v))
    inside = np.concatenate([squashed[np.abs(squashed) < 1.0], [0.5 - 2**-54, -(1.0 - 2**-53)]])
    assert_same_bits(unsquash(inside), [unsquash_one(w) for w in inside.tolist()])
    for w in inside.tolist():
        assert type(unsquash(w)) is float
        assert_same_bits(unsquash(w), unsquash_one(w))
    with pytest.raises(ValueError, match="NaN"):
        squash(np.array([0.0, math.nan]))
    with pytest.raises(ValueError, match=r"got -1\.0"):
        unsquash(np.array([0.5, -1.0, 2.0]))
