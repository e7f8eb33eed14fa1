import math

import numpy as np
import pytest

from convsel.errors import EmptySetError, OverlapError
from convsel.fields import (
    TAG_CONTINUOUS,
    Domain,
    Grid,
    modulus_ratios,
)
from convsel.urysohn import (
    ClosedSet,
    dist_field,
    dist_to_set,
    separator,
    set_distance,
    tietze_extend,
)
from reference.fields_pointwise import lift

SEGMENT_AND_POINT = ClosedSet(1, boxes=(((0.0,), (1.0,)),), points=((3.0,),))
WIDE = Domain(1, boxes=(((-3.0,), (4.0,)),))


class TestDistance:
    def test_union_of_box_and_point(self):
        assert dist_to_set(SEGMENT_AND_POINT, [2.0]) == pytest.approx(1.0)
        assert dist_to_set(SEGMENT_AND_POINT, [2.7]) == pytest.approx(0.3)
        assert dist_to_set(SEGMENT_AND_POINT, [0.5]) == 0.0
        assert dist_to_set(SEGMENT_AND_POINT, [3.0]) == 0.0
        assert dist_to_set(SEGMENT_AND_POINT, [-2.0]) == pytest.approx(2.0)

    def test_2d_box_corner(self):
        box = ClosedSet(2, boxes=(((0.0, 0.0), (1.0, 1.0)),))
        assert dist_to_set(box, [2.0, 2.0]) == pytest.approx(math.sqrt(2.0))
        assert dist_to_set(box, [0.5, -3.0]) == pytest.approx(3.0)

    def test_cloud(self):
        cloud = ClosedSet.from_cloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert dist_to_set(cloud, [1.0, 0.0]) == pytest.approx(1.0)

    def test_empty_set(self):
        empty = ClosedSet(2)
        assert empty.is_empty
        with pytest.raises(EmptySetError):
            dist_to_set(empty, [0.0, 0.0])

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        A = ClosedSet(
            2,
            boxes=(((-1.0, -1.0), (0.0, 0.5)),),
            points=((2.0, 2.0), (-3.0, 1.0)),
        )
        # dense covering of the set: lattice over the box plus the points
        xs = np.linspace(-1.0, 0.0, 201)
        ys = np.linspace(-1.0, 0.5, 201)
        lattice = np.array([(a, b) for a in xs for b in ys])
        members = np.vstack([lattice, [[2.0, 2.0], [-3.0, 1.0]]])
        for q in rng.uniform(-4, 4, size=(20, 2)):
            brute = float(np.min(np.linalg.norm(members - q, axis=1)))
            exact = dist_to_set(A, q)
            assert exact <= brute + 1e-12
            assert exact >= brute - 0.01  # lattice spacing error bound

    def test_one_lipschitz_on_grid(self):
        grid = Grid(WIDE, 257)
        d = dist_field(SEGMENT_AND_POINT, WIDE)
        vals = np.array([d(x) for x in grid.points])
        edges, spacing = grid.directed_edges()
        gaps = np.abs(vals[edges[:, 0]] - vals[edges[:, 1]])
        assert np.all(gaps <= spacing + 1e-12)

    def test_dist_field_tag(self):
        assert dist_field(SEGMENT_AND_POINT, WIDE).tag == TAG_CONTINUOUS


class TestSetDistance:
    def test_disjoint_boxes(self):
        a = ClosedSet(1, boxes=(((0.0,), (1.0,)),))
        b = ClosedSet(1, boxes=(((3.0,), (4.0,)),))
        assert set_distance(a, b) == pytest.approx(2.0)

    def test_touching_is_zero(self):
        a = ClosedSet(1, boxes=(((0.0,), (1.0,)),))
        b = ClosedSet(1, points=((1.0,),))
        assert set_distance(a, b) == 0.0

    def test_2d_diagonal_gap(self):
        a = ClosedSet(2, boxes=(((0.0, 0.0), (1.0, 1.0)),))
        b = ClosedSet(2, points=((2.0, 2.0),))
        assert set_distance(a, b) == pytest.approx(math.sqrt(2.0))


class TestSeparator:
    def test_pinned_value(self):
        s = separator(
            ClosedSet(1, points=((0.0,),)),
            ClosedSet(1, points=((1.0,),)),
            WIDE,
        )
        assert s([0.25]) == pytest.approx(0.25, abs=1e-12)
        assert s([0.0]) == 0.0
        assert s([1.0]) == 1.0

    def test_range_and_endpoint_values(self):
        A1 = ClosedSet(1, boxes=(((-2.0,), (-1.0,)),))
        A2 = ClosedSet(1, boxes=(((1.0,), (2.0,)),))
        s = separator(A1, A2, WIDE)
        for x in np.linspace(-3, 4, 101):
            v = s([x])
            assert 0.0 <= v <= 1.0
        assert s([-1.5]) == 0.0
        assert s([1.7]) == 1.0

    def test_overlap_rejected(self):
        a = ClosedSet(1, boxes=(((0.0,), (1.0,)),))
        b = ClosedSet(1, points=((0.5,),))
        with pytest.raises(OverlapError):
            separator(a, b, WIDE)

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            separator(ClosedSet(1), ClosedSet(1, points=((0.0,),)), WIDE)


def two_point_closed_form(x: float) -> float:
    """Hand-derived Hausdorff-formula extension of f(0)=0, f(1)=1 from
    A={0,1} to the line: rescaled data are 1 and 2; for x between the
    anchors with d = min(x, 1-x),
        F(x) = min(1 + x/d, 2 + (1-x)/d), clamped to [1,2], minus 1.
    Collapsing the cases gives 0 up to 1/2, then (2x-1)/(1-x) until 2/3,
    then 1.
    """
    if x <= 0.5:
        return 0.0
    if x < 2.0 / 3.0:
        return (2.0 * x - 1.0) / (1.0 - x)
    return 1.0


class TestTietze:
    def test_two_point_instance_matches_closed_form(self):
        E = Domain(1, boxes=(((-1.0,), (2.0,)),))
        A = ClosedSet.from_cloud(np.array([[0.0], [1.0]]))
        f = lift(E, lambda x: x[0], tag=TAG_CONTINUOUS)
        g = tietze_extend(f, A, E)
        assert g([0.5]) == pytest.approx(0.0, abs=1e-10)
        for x in np.linspace(0.0, 1.0, 41):
            assert g([x]) == pytest.approx(two_point_closed_form(x), abs=1e-9)
        # beyond the anchors the nearer anchor's value wins
        assert g([-0.7]) == pytest.approx(0.0, abs=1e-9)
        assert g([1.8]) == pytest.approx(1.0, abs=1e-9)

    def test_agreement_on_anchor_set(self):
        E = Domain(1, boxes=(((-3.0,), (3.0,)),))
        A = ClosedSet(1, boxes=(((-1.0,), (1.0,)),))
        f = lift(E, lambda x: x[0] ** 2, tag=TAG_CONTINUOUS)
        g = tietze_extend(f, A, E)
        for x in np.linspace(-1.0, 1.0, 17):
            assert g([x]) == pytest.approx(x**2, abs=1e-12)

    def test_range_containment(self):
        E = Domain(1, boxes=(((-3.0,), (3.0,)),))
        A = ClosedSet(1, boxes=(((-1.0,), (1.0,)),))
        f = lift(E, lambda x: x[0] ** 2, tag=TAG_CONTINUOUS)
        g = tietze_extend(f, A, E)
        for x in np.linspace(-3.0, 3.0, 61):
            assert 0.0 - 1e-12 <= g([x]) <= 1.0 + 1e-12

    def test_constants_extend_to_themselves(self):
        E = Domain(1, boxes=(((-2.0,), (4.0,)),))
        f = lift(E, lambda x: 2.5, tag=TAG_CONTINUOUS)
        g = tietze_extend(f, SEGMENT_AND_POINT, E)
        for x in (-2.0, -0.5, 0.5, 2.0, 2.9, 3.5, 4.0):
            assert g([x]) == pytest.approx(2.5, abs=1e-12)

    def test_degenerate_bounds_give_constant(self):
        E = Domain(1, boxes=(((-2.0,), (2.0,)),))
        A = ClosedSet.from_cloud(np.array([[0.0]]))
        f = lift(E, lambda x: 1.5, tag=TAG_CONTINUOUS)
        g = tietze_extend(f, A, E, lo=1.5, hi=1.5)
        assert g([2.0]) == 1.5

    def test_2d_cloud(self):
        E = Domain(2, boxes=(((0.0, 0.0), (1.0, 1.0)),))
        A = ClosedSet.from_cloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        f = lift(E, lambda x: x[0], tag=TAG_CONTINUOUS)
        g = tietze_extend(f, A, E)
        assert g([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert g([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
        # the diagonal midpoint: both candidates cost one unit of rescaled
        # travel, so the infimum hits the floor of the band
        assert g([0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
        for q in np.random.default_rng(5).uniform(0, 1, size=(25, 2)):
            assert -1e-12 <= g(q) <= 1.0 + 1e-12

    def test_nonfinite_data_rejected(self):
        E = Domain(1, boxes=(((-1.0,), (1.0,)),))
        A = ClosedSet.from_cloud(np.array([[0.0]]))
        f = lift(E, lambda x: math.inf, tag=TAG_CONTINUOUS)
        with pytest.raises(ValueError, match="compress"):
            tietze_extend(f, A, E)

    def test_modulus_shrinks_under_refinement(self):
        E = Domain(1, boxes=(((-2.0,), (2.0,)),))
        A = ClosedSet.from_cloud(np.array([[0.0], [1.0]]))
        f = lift(E, lambda x: x[0], tag=TAG_CONTINUOUS)
        g = tietze_extend(f, A, E)
        for r in modulus_ratios(g, E, 33, halvings=3):
            assert r is None or r <= 0.75
