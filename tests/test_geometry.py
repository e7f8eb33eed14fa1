import math

import numpy as np
import pytest

from conftest import random_body, sample_in_body, sampled_min_norm
from convsel.errors import (
    DimensionMismatchError,
    InfeasibleBodyError,
    UnboundedBodyError,
)
from convsel.geometry import Ball, HPolytope, Interval
from reference.maps_pointwise import sample


class TestInterval:
    def test_projection_clips(self):
        box = Interval(-1.0, 2.0)
        assert box.project([5.0]) == pytest.approx([2.0])
        assert box.project([-3.0]) == pytest.approx([-1.0])
        assert box.project([0.5]) == pytest.approx([0.5])

    def test_least_norm(self):
        assert Interval(1.0, 2.0).least_norm() == pytest.approx([1.0])
        assert Interval(-2.0, -1.0).least_norm() == pytest.approx([-1.0])
        assert Interval(-1.0, 2.0).least_norm() == pytest.approx([0.0])

    def test_extended_endpoints(self):
        ray = Interval(0.0, math.inf)
        assert ray.project([7.0]) == pytest.approx([7.0])
        assert ray.project([-7.0]) == pytest.approx([0.0])
        lo, hi = ray.coord_bounds()
        assert lo[0] == 0.0 and hi[0] == math.inf

    def test_interior_margin_is_min_side_gap(self):
        box = Interval(0.0, 4.0)
        assert box.boundary_margin([1.0]) == pytest.approx(1.0)
        assert box.boundary_margin([3.5]) == pytest.approx(0.5)
        assert box.boundary_margin([0.0]) == pytest.approx(0.0)
        assert box.boundary_margin([-2.0]) == pytest.approx(-2.0)

    def test_degenerate_margin_nonpositive(self):
        assert Interval(1.0, 1.0).boundary_margin([1.0]) <= 0.0

    def test_invalid(self):
        with pytest.raises(InfeasibleBodyError):
            Interval(2.0, 1.0)
        with pytest.raises(InfeasibleBodyError):
            Interval(math.nan, 1.0)

    @pytest.mark.parametrize("end", [math.inf, -math.inf])
    def test_point_at_infinity_rejected(self, end):
        # [inf, inf] holds no real number; accepting it made least_norm inf
        with pytest.raises(InfeasibleBodyError, match="no real point"):
            Interval(end, end)

    def test_contains(self):
        assert Interval(0.0, 1.0).contains([0.5])
        assert not Interval(0.0, 1.0).contains([1.5])


class TestBall:
    def test_least_norm_hand_value(self):
        # center (3,4) has norm 5; the nearest point to the origin sits
        # one radius inward along the ray: (3,4) * (1 - 1/5).
        y = Ball([3.0, 4.0], 1.0).least_norm()
        assert y == pytest.approx([2.4, 3.2], abs=1e-12)

    def test_least_norm_inside_origin(self):
        assert Ball([0.1, 0.0], 1.0).least_norm() == pytest.approx([0.0, 0.0])

    def test_projection_oracle(self):
        rng = np.random.default_rng(7)
        body = Ball([1.0, -2.0, 0.5], 1.5)
        members = sample_in_body(body, 4000, rng)
        for z in rng.normal(scale=4, size=(5, 3)):
            proj = body.project(z)
            assert body.contains(proj, tol=1e-9)
            best = float(np.min(np.linalg.norm(members - z, axis=1)))
            assert np.linalg.norm(proj - z) <= best + 1e-6

    def test_coord_bounds(self):
        lo, hi = Ball([2.0, -1.0], 0.5).coord_bounds()
        assert lo == pytest.approx([1.5, -1.5])
        assert hi == pytest.approx([2.5, -0.5])

    def test_interior_margin(self):
        body = Ball([0.0, 0.0], 2.0)
        assert body.boundary_margin([1.0, 0.0]) == pytest.approx(1.0)
        assert body.boundary_margin([3.0, 0.0]) == pytest.approx(-1.0)

    def test_infinite_center_rejected(self):
        with pytest.raises(InfeasibleBodyError):
            Ball([math.inf, 0.0], 1.0)
        with pytest.raises(InfeasibleBodyError):
            Ball([0.0, 0.0], -1.0)


TRIANGLE = HPolytope(
    [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [-1.0, -1.0, 4.0]
)  # y1 >= 1, y2 >= 1, y1 + y2 <= 4


class TestHPolytope:
    def test_box_projection_is_clip(self):
        box = HPolytope.from_box([-1.0, 0.0], [1.0, 2.0])
        assert box.project([3.0, -1.0]) == pytest.approx([1.0, 0.0])
        assert box.project([0.2, 1.0]) == pytest.approx([0.2, 1.0])

    def test_triangle_least_norm_is_corner(self):
        assert TRIANGLE.least_norm() == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_triangle_projection_onto_facet(self):
        # (3,3) projects onto the hypotenuse y1+y2=4 at (2,2)
        assert TRIANGLE.project([3.0, 3.0]) == pytest.approx([2.0, 2.0], abs=1e-8)

    def test_triangle_coord_bounds(self):
        lo, hi = TRIANGLE.coord_bounds()
        assert lo == pytest.approx([1.0, 1.0], abs=1e-8)
        assert hi == pytest.approx([3.0, 3.0], abs=1e-8)

    def test_unbounded_coord_bounds(self):
        quadrant = HPolytope([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        lo, hi = quadrant.coord_bounds()
        assert lo == pytest.approx([0.0, 0.0], abs=1e-9)
        assert hi[0] == math.inf and hi[1] == math.inf

    def test_unbounded_sampling_needs_box(self):
        quadrant = HPolytope([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        with pytest.raises(UnboundedBodyError):
            quadrant.sample_bounds()
        boxed = HPolytope(
            quadrant.A, quadrant.b,
            bounding_box=(np.zeros(2), np.full(2, 5.0)),
        )
        lo, hi = boxed.sample_bounds()
        assert hi == pytest.approx([5.0, 5.0])

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleBodyError):
            HPolytope([[1.0], [-1.0]], [-1.0, -1.0])  # y <= -1 and y >= 1

    def test_zero_rows(self):
        with pytest.raises(InfeasibleBodyError):
            HPolytope([[0.0, 0.0]], [-1.0])  # 0 <= -1 never holds
        free = HPolytope([[0.0, 0.0]], [1.0])  # vacuous constraint dropped
        assert free.project([3.0, -4.0]) == pytest.approx([3.0, -4.0])

    def test_translate(self):
        moved = TRIANGLE.translate([1.0, -1.0])
        assert moved.least_norm() == pytest.approx([2.0, 0.0], abs=1e-9)

    def test_intersect(self):
        upper = HPolytope([[0.0, -1.0]], [-1.5])  # y2 >= 1.5
        both = HPolytope.intersect(TRIANGLE, upper)
        y = both.least_norm()
        assert y == pytest.approx([1.0, 1.5], abs=1e-8)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            HPolytope([[1.0, 0.0]], [1.0, 2.0])

    def test_interior_margin_signs(self):
        assert TRIANGLE.boundary_margin([1.5, 1.5]) > 0
        assert TRIANGLE.boundary_margin([1.0, 2.0]) == pytest.approx(0.0, abs=1e-12)
        outside = TRIANGLE.boundary_margin([0.0, 0.0])
        assert outside == pytest.approx(-math.sqrt(2.0), abs=1e-8)

    @pytest.mark.parametrize("a", [0.01, 0.1])
    def test_thin_wedge_least_norm(self, a):
        # the apex (1, 0) of a wedge opening at angle 2a; at a = 0.01
        # Dykstra's sweeps stalled at residual 3.7e-4 and raised
        A = [[-math.sin(a), math.cos(a)], [-math.sin(a), -math.cos(a)], [1.0, 0.0]]
        b = [-math.sin(a), -math.sin(a), 5.0]
        assert HPolytope(A, b).least_norm() == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_projection_matches_sampling_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            body = random_body(rng, int(rng.integers(2, 4)))
            members = sample_in_body(body, 3000, rng)
            z = rng.normal(scale=5, size=body.dim)
            proj = body.project(z)
            assert body.contains(proj, tol=1e-7)
            best = float(np.min(np.linalg.norm(members - z, axis=1)))
            assert np.linalg.norm(proj - z) <= best + 1e-6


class TestFunctional:
    def test_distance(self):
        assert Interval(1.0, 2.0).distance([0.0]) == pytest.approx(1.0)
        assert Ball([3.0, 4.0], 1.0).distance([0.0, 0.0]) == pytest.approx(4.0)

    def test_sample_members(self):
        for row, body in enumerate((Interval(-1.0, 2.0), Ball([1.0, 1.0], 0.5), TRIANGLE)):
            pts = sample(body, 50, 3, row)
            assert pts.shape == (50, body.dim)
            assert body.contains_many(pts, tol=1e-7).all()

    def test_coord_bounds_functional_form(self):
        lo, hi = TRIANGLE.coord_bounds()
        assert lo[1] == pytest.approx(1.0, abs=1e-8)
        assert hi[1] == pytest.approx(3.0, abs=1e-8)
