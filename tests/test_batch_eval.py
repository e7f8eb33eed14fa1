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

from conftest import assert_same_bits
from convsel.errors import DimensionMismatchError, IndeterminateSumError
from convsel.fields import (
    TAG_CONTINUOUS,
    Domain,
    Grid,
    ScalarField,
    add,
    compress_field,
    constant_field,
    grid_values,
    negate,
    pymax,
    pymin,
)
from convsel.urysohn import ClosedSet, dist_field, tietze_extend
from reference.fields_pointwise import dist_pointwise, lift, tietze_pointwise

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

    def test_nan_from_a_batch_raises_like_call(self):
        f = ScalarField(LINE, batch=lambda X: np.full(len(X), math.nan))
        with pytest.raises(ValueError, match="NaN"):
            f.many(POINTS)


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
        F = tietze_extend(data, cloud)
        assert_same_bits(F.many(X), pointwise(tietze_pointwise(data, cloud), X))

    def test_snapped_points_return_the_baked_values(self):
        pts = np.linspace(-1.0, 1.0, 17).reshape(-1, 1)
        A = ClosedSet.from_cloud(pts)
        F = tietze_extend(lambda p: float(p[0] ** 2), A)
        near = pts + 1e-13  # within the membership snap of the cloud
        assert_same_bits(F.many(pts), pts[:, 0] ** 2)
        ref = tietze_pointwise(lambda p: float(p[0] ** 2), A)
        assert_same_bits(F.many(near), pointwise(ref, near))

    def test_values_are_baked_in_place_of_calls(self):
        A = ClosedSet.from_cloud(np.array([[0.0], [0.5], [1.0]]))
        values = np.array([0.25, -1.0, 2.0])
        F = tietze_extend(lambda p: pytest.fail("f was called"), A, values=values)
        G = tietze_extend(lambda p: float(values[int(round(2 * p[0]))]), A)
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
            F = tietze_extend(data, A, lo=lo, hi=hi)
            assert_same_bits(F.many(X), pointwise(tietze_pointwise(data, A, lo, hi), X))
            assert_same_bits([F(x) for x in X], F.many(X))

    def test_box_components_need_f(self):
        A = ClosedSet(1, boxes=(((0.0,), (1.0,)),), points=((3.0,),))
        with pytest.raises(ValueError, match="box components needs f"):
            tietze_extend(None, A, values=[1.0])

    def test_constant_data_gives_a_constant_batch(self):
        A = ClosedSet.from_cloud(np.array([[0.0], [0.5]]))
        F = tietze_extend(lambda p: 0.75, A)
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
        F = tietze_extend(lambda p: float(p[0] ** 3), cloud)
        X = np.linspace(-1.0, 1.0, 8193).reshape(-1, 1) + 1e-6
        tracemalloc.start()
        try:
            F.many(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
