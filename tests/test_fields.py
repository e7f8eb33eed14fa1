import math

import numpy as np
import pytest

from convsel.errors import (
    DimensionMismatchError,
    IndeterminateSumError,
    TagError,
)
from convsel.fields import (
    TAG_CONTINUOUS,
    TAG_LOWER,
    TAG_UNKNOWN,
    TAG_UPPER,
    Domain,
    Grid,
    ScalarField,
    VectorField,
    add,
    compress,
    compress_field,
    constant_field,
    continuity_modulus,
    decompress,
    default_eps,
    modulus_ratios,
    negate,
    semicontinuity_audit,
    squash,
    unsquash,
)
from convsel.urysohn import ClosedSet
from reference.fields_pointwise import lift

LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))


class TestCompression:
    def test_fixed_points_and_infinities(self):
        assert compress(0.0) == 0
        assert compress(math.inf) == 1
        assert compress(-math.inf) == -1

    def test_strictly_monotone(self):
        xs = [-1e6, -3.0, -1e-9, 0.0, 2e-9, 1.0, 4e5]
        ys = [compress(v) for v in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))
        assert all(abs(y) <= 1 for y in ys)

    def test_roundtrip_small(self):
        for v in (0.0, 1.0, -2.5, 1e-8, 137.0):
            assert float(decompress(compress(v))) == pytest.approx(v, abs=1e-12)

    def test_roundtrip_large_values_need_the_extended_precision(self):
        # near 1e6 the compressed value differs from 1 by ~5e-13; a float64
        # round-trip would lose the input entirely, the mpf one keeps it
        v = 1e6
        w = compress(v)
        assert abs(float(decompress(w)) - v) <= 1e-12 * v

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            compress(math.nan)

    def test_decompress_domain(self):
        with pytest.raises(ValueError):
            decompress(1.0)
        with pytest.raises(ValueError):
            decompress(-1.2)

    def test_squash_matches_compress(self):
        for v in (-3.0, 0.0, 0.7, 100.0):
            assert squash(v) == pytest.approx(float(compress(v)), abs=1e-15)
        assert squash(math.inf) == 1.0
        assert squash(-math.inf) == -1.0

    def test_unsquash_roundtrip(self):
        for v in (-5.0, -0.1, 0.0, 0.3, 8.0):
            assert unsquash(squash(v)) == pytest.approx(v, rel=1e-12)
        with pytest.raises(ValueError):
            unsquash(1.0)


class TestDomainAndGrid:
    def test_contains(self):
        dom = Domain(1, boxes=(((0.0,), (1.0,)),), points=((3.0,),))
        assert dom.contains([0.5])
        assert dom.contains([3.0])
        assert not dom.contains([2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Domain(1)  # empty
        with pytest.raises(ValueError):
            Domain(1, boxes=(((1.0,), (0.0,)),))  # lo > hi
        with pytest.raises(DimensionMismatchError):
            Domain(2, points=((1.0,),))
        with pytest.raises(ValueError):
            Domain(1, boxes=(((0.0,), (math.inf,)),))

    @pytest.mark.parametrize("points, error, message", [
        ([[0.0, 1.0], [2.0]], DimensionMismatchError, "point must have shape"),
        ([[0.0, 1.0], [2.0, 3.0, 4.0]], DimensionMismatchError, "point must have shape"),
        ([[0.0, 1.0, 2.0]], DimensionMismatchError, "point must have shape"),
        ([np.array([[0.0, 1.0]])], DimensionMismatchError, "point must have shape"),
        ([1.0, 2.0], DimensionMismatchError, "point must have shape"),
        ([[0.0, 1.0], ["a", 2.0]], ValueError, "could not convert string"),
        ([[0.0, 1.0], [2.0, math.inf]], ValueError, "points must be finite"),
        ([[0.0, math.nan]], ValueError, "points must be finite"),
    ])
    def test_points_are_checked_as_one_array(self, points, error, message):
        # the first point at fault names the error, for domains and sets alike
        for build in (lambda: Domain(2, points=points),
                      lambda: ClosedSet(2, points=points)):
            with pytest.raises(error, match=message):
                build()

    def test_points_are_kept_as_one_array(self):
        cloud = np.array([[0.0, 1.0], [2.0, 3.0]])
        for points in (cloud, tuple(cloud), [[0, 1], [2, 3]]):
            for held in (Domain(2, points=points).points, ClosedSet(2, points=points).points):
                assert held.shape == (2, 2) and held.dtype == float
                np.testing.assert_array_equal(held, cloud)
        assert ClosedSet(2).points.shape == (0, 2) and ClosedSet(2).is_empty
        assert ClosedSet.from_cloud(cloud).points is not cloud  # a copy: the set owns it

    def test_grid_points_1d(self):
        g = Grid(Domain(1, boxes=(((-2.0,), (2.0,)),)), 5)
        assert g.points.ravel().tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_grid_includes_isolated_points(self):
        g = Grid(Domain(1, boxes=(((0.0,), (1.0,)),), points=((5.0,),)), 3)
        assert g.points.ravel().tolist() == [0.0, 0.5, 1.0, 5.0]
        edges, _ = g.directed_edges()
        assert 3 not in edges[:, :2]  # the isolated point has no edges

    def test_directed_edges_and_far_encoding(self):
        g = Grid(Domain(1, boxes=(((0.0,), (2.0,)),)), 3)
        edges, spacing = g.directed_edges()
        rows = {tuple(row) for row in edges.tolist()}
        # (tail, head, next-in-same-direction or -1)
        assert rows == {(0, 1, 2), (1, 2, -1), (2, 1, 0), (1, 0, -1)}
        assert np.allclose(spacing, 1.0)

    def test_no_edges_across_boxes(self):
        g = Grid(Domain(1, boxes=(((0.0,), (1.0,)), ((5.0,), (6.0,)))), 2)
        edges, _ = g.directed_edges()
        assert all({t, h} in ({0, 1}, {2, 3}) for t, h, _f in edges.tolist())

    def test_refinement_keeps_odd_counts_and_nests(self):
        g = Grid(LINE, 5)
        fine = g.refined()
        assert fine.per_axis == 9
        assert set(g.points.ravel()).issubset(set(fine.points.ravel()))
        assert 0.0 in set(fine.points.ravel())

    def test_2d_grid(self):
        g = Grid(Domain(2, boxes=(((0.0, 0.0), (1.0, 1.0)),)), 3)
        assert len(g) == 9
        edges, _ = g.directed_edges()
        # interior point 4 has 4 neighbours
        assert sorted(edges[edges[:, 0] == 4, 1].tolist()) == [1, 3, 5, 7]

    def test_max_spacing(self):
        assert Grid(LINE, 5).max_spacing() == pytest.approx(0.5)


class TestFieldAlgebra:
    def test_call_and_operators(self):
        f = lift(LINE, lambda x: x[0], tag=TAG_CONTINUOUS)
        g = lift(LINE, lambda x: 1.0, tag=TAG_CONTINUOUS)
        assert (f + g)([0.25]) == 1.25
        assert (-f)([0.25]) == -0.25
        assert (f - g)([0.5]) == -0.5

    def test_nan_rejected_at_call(self):
        f = lift(LINE, lambda x: math.nan)
        with pytest.raises(ValueError):
            f([0.0])

    def test_sum_tags(self):
        lower = lift(LINE, lambda x: 0.0, tag=TAG_LOWER)
        upper = lift(LINE, lambda x: 0.0, tag=TAG_UPPER)
        cont = lift(LINE, lambda x: 1.0, tag=TAG_CONTINUOUS)
        assert add(lower, cont).tag == TAG_LOWER
        assert add(cont, upper).tag == TAG_UPPER
        assert add(lower, lower).tag == TAG_LOWER
        assert add(cont, cont).tag == TAG_CONTINUOUS
        with pytest.raises(TagError):
            add(lower, upper)  # jumps can cancel or not; no claim survives

    def test_both_kinds_of_field_reject_an_unknown_tag(self):
        with pytest.raises(TagError, match="unknown tag 'bogus'"):
            ScalarField(None, batch=lambda X: X[:, 0], tag="bogus")
        with pytest.raises(TagError, match="unknown tag 'bogus'"):
            VectorField(None, 2, batch=lambda X: X, tag="bogus")
        assert VectorField(None, 2, batch=lambda X: X, tag=TAG_LOWER).tag == TAG_LOWER

    def test_negate_flips_direction(self):
        lower = lift(LINE, lambda x: x[0], tag=TAG_LOWER)
        assert negate(lower).tag == TAG_UPPER
        assert negate(negate(lower)).tag == TAG_LOWER
        assert negate(lower)([0.5]) == -0.5

    def test_indeterminate_sum(self):
        plus = lift(LINE, lambda x: math.inf, tag=TAG_CONTINUOUS)
        minus = lift(LINE, lambda x: -math.inf, tag=TAG_CONTINUOUS)
        s = add(plus, minus)
        with pytest.raises(IndeterminateSumError):
            s([0.0])

    def test_compress_field(self):
        f = lift(LINE, lambda x: math.inf if x[0] > 0 else x[0],
                        tag=TAG_CONTINUOUS)
        fc = compress_field(f)
        assert fc([0.5]) == 1.0
        assert fc([-0.5]) == pytest.approx(squash(-0.5))
        assert fc.tag == TAG_CONTINUOUS

    def test_constant_field(self):
        c = constant_field(LINE, 2.5)
        assert c([0.1]) == 2.5
        assert c.tag == TAG_CONTINUOUS


def spike_field(at_zero: float, elsewhere: float) -> ScalarField:
    return lift(
        LINE,
        lambda x: at_zero if x[0] == 0.0 else elsewhere,
        tag=TAG_LOWER,
    )


class TestSemicontinuityAudit:
    def test_lower_sc_dip_passes(self):
        # 0 away from the origin, -1 at it: lower semicontinuous
        rep = semicontinuity_audit(spike_field(-1.0, 0.0), Grid(LINE, 33))
        assert rep.passed

    def test_lower_sc_peak_fails_at_origin(self):
        # -1 away from the origin, 0 at it: neighbours drop persistently
        rep = semicontinuity_audit(spike_field(0.0, -1.0), Grid(LINE, 33))
        assert not rep.passed
        assert any(v.x == (0.0,) for v in rep.violations)

    def test_upper_sc_mirror(self):
        f = lift(LINE, lambda x: 1.0 if x[0] == 0.0 else 0.0, tag=TAG_UPPER)
        assert semicontinuity_audit(f, Grid(LINE, 33)).passed
        g = lift(LINE, lambda x: 0.0 if x[0] == 0.0 else 1.0, tag=TAG_UPPER)
        assert not semicontinuity_audit(g, Grid(LINE, 33)).passed

    def test_unknown_tag_is_vacuous(self):
        f = lift(LINE, lambda x: 1.0 if x[0] > 0 else -1.0, tag=TAG_UNKNOWN)
        rep = semicontinuity_audit(f, Grid(LINE, 33))
        assert rep.passed
        assert rep.notes

    def test_explicit_tag_overrides(self):
        f = lift(LINE, lambda x: 1.0 if x[0] >= 0 else 0.0, tag=TAG_UNKNOWN)
        rep = semicontinuity_audit(f, Grid(LINE, 33), tag=TAG_CONTINUOUS)
        assert not rep.passed  # a real step is not continuous

    def test_mask_restricts(self):
        f = lift(LINE, lambda x: 1.0 if x[0] >= 0 else 0.0,
                        tag=TAG_CONTINUOUS)
        grid = Grid(LINE, 33)
        mask = np.array([x[0] < 0 for x in grid.points])
        rep = semicontinuity_audit(f, grid, mask=mask)
        assert rep.passed  # constant on the masked half
        assert rep.checked == int(mask.sum())

    def test_constant_infinite_field_passes(self):
        f = lift(LINE, lambda x: math.inf, tag=TAG_CONTINUOUS)
        assert semicontinuity_audit(f, Grid(LINE, 17)).passed

    def test_single_cell_exception_tolerated(self):
        # one bad grid point, fine on both its flanks: the two-cell rule
        # attributes the defect to the exceptional point and tolerates it
        grid = Grid(LINE, 33)
        bad_x = grid.points[7][0]
        f = lift(
            LINE, lambda x: -5.0 if x[0] == bad_x else 0.0, tag=TAG_LOWER
        )
        assert semicontinuity_audit(f, grid, eps=0.1).passed


class TestModulus:
    def test_continuity_modulus_linear(self):
        f = lift(LINE, lambda x: 3.0 * x[0], tag=TAG_CONTINUOUS)
        g = Grid(LINE, 33)
        assert continuity_modulus(f, g) == pytest.approx(3.0 * g.max_spacing())

    def test_modulus_ratios_smooth(self):
        ratios = modulus_ratios(lift(LINE, lambda x: x[0] ** 2), LINE, 33, halvings=2)
        assert len(ratios) == 2
        assert all(r is not None and r <= 0.75 for r in ratios)

    def test_modulus_ratios_constant_is_none(self):
        ratios = modulus_ratios(lift(LINE, lambda x: 4.0), LINE, 33, halvings=2)
        assert ratios == [None, None]

    def test_default_eps_scales_with_spacing(self):
        assert default_eps(Grid(LINE, 33)) == pytest.approx(10 * 2 / 32)
