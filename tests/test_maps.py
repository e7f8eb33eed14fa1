import numpy as np
import pytest

from conftest import NONZERO, ORIGIN, assert_same_bits, constant_rule, interval_rule
from convsel import maps
from convsel.errors import (
    DimensionMismatchError,
    ProjectionError,
    TagError,
    UncoveredPointError,
)
from convsel.fields import (
    TAG_CONTINUOUS,
    TAG_LOWER,
    TAG_UNKNOWN,
    TAG_UPPER,
    Domain,
    Grid,
    VectorField,
)
from convsel.geometry import Ball, HPolytope, Interval, IntervalBatch, StackedBatch
from convsel.maps import (
    EVERYWHERE,
    Region,
    SetValuedMap,
    Stratification,
    constant_map,
    continuity_audit,
    envelopes,
    graph_sample,
    lsc_audit,
    region_or,
    shift,
    stratification_audit,
)

from reference import maps_pointwise
from reference.maps_pointwise import probe_points

LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))


def two_piece_map(inner: Interval, at_zero: Interval, **tags) -> SetValuedMap:
    return SetValuedMap(
        LINE,
        1,
        ((NONZERO, constant_rule(inner)), (ORIGIN, constant_rule(at_zero))),
        name="two-piece",
        **tags,
    )


# The pair at the heart of the audit checks: unit_slab is lower
# semicontinuous (the value can only grow in the limit), its transpose
# pinches a fat body down to a point and is not.
unit_slab = two_piece_map(Interval(0.0, 1.0), Interval(0.0, 0.0), declared_lsc=True)
pinch = two_piece_map(Interval(0.0, 0.0), Interval(0.0, 1.0), declared_lsc=True)


class TestSetValuedMap:
    def test_first_match_wins(self):
        m = SetValuedMap(
            LINE,
            1,
            ((EVERYWHERE, interval_rule(0, 0)), (EVERYWHERE, interval_rule(5, 5))),
        )
        body = m([0.3])
        assert (body.lo, body.hi) == (0.0, 0.0)

    def test_uncovered_point(self):
        m = SetValuedMap(LINE, 1, ((NONZERO, interval_rule(0, 1)),))
        with pytest.raises(UncoveredPointError):
            m([0.0])

    def test_output_dim_enforced(self):
        m = SetValuedMap(LINE, 2, ((EVERYWHERE, interval_rule(0, 1)),))
        with pytest.raises(DimensionMismatchError):
            m([0.0])

    def test_a_rule_returning_a_body_is_refused(self):
        # a piece rule maps an array of points to a batch, not a point to a body
        m = SetValuedMap(LINE, 1, ((EVERYWHERE, lambda X: Interval(0, 1)),))
        with pytest.raises(TypeError, match="must return a BodyBatch, got Interval"):
            m.evaluate_many(np.zeros((3, 1)))
        with pytest.raises(TypeError, match="must return a BodyBatch"):
            m([0.0])

    def test_a_batch_of_the_wrong_length_is_refused(self):
        m = SetValuedMap(LINE, 1, ((EVERYWHERE, interval_rule(0, 1)),))
        short = SetValuedMap(LINE, 1, ((EVERYWHERE, lambda X: IntervalBatch([0.0], [1.0])),))
        assert len(m.evaluate_many(np.zeros((3, 1)))) == 3
        with pytest.raises(TypeError, match="returned 1 bodies for 3 points"):
            short.evaluate_many(np.zeros((3, 1)))

    def test_constant_map_tags(self):
        m = constant_map(LINE, Ball((0.0, 0.0), 1.0))
        assert m.declared_lsc and m.declared_continuous
        assert m.output_dim == 2

    @pytest.mark.parametrize("body", [
        Interval(-0.5, 2.0),
        Ball((0.5, -1.0), 2.0),
        HPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 2.0, 0.5])),
    ], ids=["interval", "ball", "polytope"])
    def test_constant_map_is_its_row_repeated(self, body):
        # one batch of the body's row, bit for bit with the body stacked
        # once per point
        X = np.linspace(-1.0, 1.0, 7).reshape(-1, 1)
        got = constant_map(LINE, body).evaluate_many(X)
        want = StackedBatch.of_rows([body._row] * 7, body.dim)
        for a, b in zip(got.coord_extremes(), want.coord_extremes()):
            assert_same_bits(a, b)
        assert_same_bits(got.least_norm(), want.least_norm())
        rows = np.arange(7).repeat(2)
        Z = np.random.default_rng(1).uniform(-3.0, 3.0, size=(14, 2, body.dim))
        assert_same_bits(got.project_rows(rows, Z), want.project_rows(rows, Z))
        assert np.array_equal(got.contains(rows, Z), want.contains(rows, Z))


class TestRegions:
    def test_combinators(self):
        left = Region("left", batch=lambda X: X[:, 0] < 0)
        assert region_or(left, ORIGIN)(np.array([0.0]))
        np.testing.assert_array_equal(
            region_or(left, ORIGIN).mask(np.array([[-1.0], [0.0], [1.0]])), [True, True, False]
        )

    def test_a_pointwise_predicate_is_refused(self):
        # a region is its batch, given by keyword; the old (predicate, label)
        # call has no place for the predicate
        with pytest.raises(TypeError):
            Region(lambda x: x[0] < 0, "left")
        with pytest.raises(TypeError):
            Region("left")
        assert not hasattr(Region("left", batch=lambda X: X[:, 0] < 0), "predicate")

    def test_a_mask_of_the_wrong_shape_is_refused(self):
        scalar = Region("scalar", batch=lambda X: X[0, 0] < 0)
        with pytest.raises(DimensionMismatchError, match=r"scalar gave a mask of shape \(\)"):
            scalar.mask(np.zeros((3, 1)))
        column = Region("column", batch=lambda X: X < 0)
        with pytest.raises(DimensionMismatchError, match=r"shape \(1, 1\) for 1 points"):
            column([0.0])

    @pytest.mark.parametrize("region, boundary", [
        (NONZERO, [[0.0]]),  # the puncture of the line
        (EVERYWHERE, np.empty((0, 1))),  # no point lies outside
    ], ids=["punctured_line", "everything"])
    def test_boundary_mask(self, region, boundary):
        grid = Grid(LINE, 5)
        mask = maps.boundary_mask(region.mask(grid.points), grid)
        np.testing.assert_array_equal(grid.points[mask], boundary)


class TestShift:
    def test_constant_vector(self):
        m = constant_map(LINE, Interval(1.0, 3.0))
        shifted = shift(m, [2.0])
        body = shifted([0.0])
        assert (body.lo, body.hi) == (-1.0, 1.0)

    def test_continuous_vector_field(self):
        m = constant_map(LINE, Interval(0.0, 1.0))
        f = VectorField(LINE, 1, batch=lambda X: X[:, :1].copy(), tag=TAG_CONTINUOUS)
        shifted = shift(m, f)
        body = shifted([0.5])
        assert body.lo == pytest.approx(-0.5)
        assert body.hi == pytest.approx(0.5)
        lo, hi = shifted.evaluate_many(np.array([[0.5], [-1.0]])).coord_bounds()
        np.testing.assert_array_equal(np.hstack([lo, hi]), [[-0.5, 0.5], [1.0, 2.0]])

    def test_callable(self):
        # a plain callable is neither a field nor a vector: refused
        m = constant_map(LINE, Interval(0.0, 1.0))
        with pytest.raises(TypeError):
            shift(m, lambda x: np.array([x[0]]))

    def test_vector_field_must_be_continuous(self):
        m = constant_map(LINE, Interval(0.0, 1.0))
        rough = VectorField(LINE, 1, batch=lambda X: np.zeros((len(X), 1)), tag=TAG_UNKNOWN)
        with pytest.raises(TagError):
            shift(m, rough)

    def test_vector_field_dim_checked(self):
        m = constant_map(LINE, Interval(0.0, 1.0))
        f2 = VectorField(LINE, 2, batch=lambda X: np.zeros((len(X), 2)), tag=TAG_CONTINUOUS)
        with pytest.raises(DimensionMismatchError):
            shift(m, f2)

    def test_tags_preserved(self):
        shifted = shift(unit_slab, [0.25])
        assert shifted.declared_lsc
        assert not shifted.declared_continuous


class TestEnvelopes:
    def test_values_and_tags_for_lsc_map(self):
        f, g = envelopes(unit_slab)
        assert f.tag == TAG_UPPER and g.tag == TAG_LOWER
        assert f([0.5]) == 0.0 and g([0.5]) == 1.0
        assert f([0.0]) == 0.0 and g([0.0]) == 0.0

    def test_unknown_tags_without_declaration(self):
        m = SetValuedMap(LINE, 1, ((EVERYWHERE, interval_rule(0, 1)),))
        f, g = envelopes(m)
        assert f.tag == TAG_UNKNOWN and g.tag == TAG_UNKNOWN

    def test_needs_scalar_output(self):
        m = constant_map(LINE, Ball((0.0, 0.0), 1.0))
        with pytest.raises(DimensionMismatchError):
            envelopes(m)


class TestProbes:
    def test_interval_probes_endpoints_first(self):
        pts = probe_points(Interval(2.0, 5.0), 3, 0)
        assert pts[0][0] == 2.0
        assert pts[1][0] == 5.0
        assert pts[2][0] == 2.0  # least-norm point of [2, 5]

    def test_unbounded_interval_pads_by_repetition(self):
        pts = probe_points(Interval(float("-inf"), float("inf")), 3, 0)
        assert all(p[0] == 0.0 for p in pts)

    def test_sampling_failure_propagates(self, monkeypatch):
        # only an unbounded body (nothing to sample) is padded by repetition
        def failing_sample(body, k, seed, row):
            raise ProjectionError("projection did not converge")

        monkeypatch.setattr(maps_pointwise, "sample", failing_sample)
        with pytest.raises(ProjectionError):
            probe_points(Interval(2.0, 5.0), 5, 0)

    def test_a_failing_batch_sample_propagates(self, monkeypatch):
        # the probes from one batch have no per-body error to catch either
        def failing_contains(self, rows, Y):
            raise ProjectionError("projection did not converge")

        monkeypatch.setattr(IntervalBatch, "contains", failing_contains)
        m = SetValuedMap(LINE, 1, ((EVERYWHERE, interval_rule(2.0, 5.0)),))
        with pytest.raises(ProjectionError):
            graph_sample(m, Grid(LINE, 3), per_point=5)

    def test_graph_sample_of_moving_interval(self):
        dom = Domain(1, boxes=(((0.0,), (1.0,)),))
        m = SetValuedMap(
            dom, 1, ((EVERYWHERE, interval_rule(lambda X: X[:, 0], lambda X: X[:, 0] + 1.0)),)
        )
        pairs = graph_sample(m, Grid(dom, 2), per_point=2)
        flat = [(x[0], y[0]) for x, y in pairs]
        assert flat == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0)]

    def test_graph_sample_membership(self):
        dom = Domain(1, boxes=(((0.0,), (1.0,)),))
        m = SetValuedMap(
            dom, 1, ((EVERYWHERE, interval_rule(lambda X: X[:, 0], lambda X: X[:, 0] + 1.0)),)
        )
        for x, y in graph_sample(m, Grid(dom, 9), per_point=5):
            assert m(x).contains(y, tol=1e-12)

    def test_graph_sample_deterministic(self):
        dom = Domain(1, boxes=(((0.0,), (1.0,)),))
        m = constant_map(dom, Ball((0.0, 0.0), 1.0))
        a = graph_sample(m, Grid(dom, 5), per_point=8, seed=7)
        b = graph_sample(m, Grid(dom, 5), per_point=8, seed=7)
        assert all(
            np.array_equal(xa, xb) and np.array_equal(ya, yb)
            for (xa, ya), (xb, yb) in zip(a, b)
        )


class TestLscAudit:
    def test_lsc_pair(self):
        grid = Grid(LINE, 17)
        assert lsc_audit(unit_slab, grid, eps=1e-6).passed
        report = lsc_audit(pinch, grid, eps=1e-6)
        assert not report.passed
        worst = max(report.violations, key=lambda v: v.deficit)
        assert worst.x == (0.0,)
        assert worst.probe[0] == pytest.approx(1.0)
        assert worst.deficit == pytest.approx(1.0 - 1e-6 - 0.125)

    def test_refinement_monotone_for_continuous_map(self):
        # a declared-continuous map that passes at spacing s keeps passing
        # at spacing s/2 with the same eps
        dom = Domain(1, boxes=(((0.0,), (2.0,)),))
        m = SetValuedMap(
            dom,
            1,
            ((EVERYWHERE, interval_rule(lambda X: np.sin(X[:, 0]),
                                        lambda X: np.sin(X[:, 0]) + 1.0)),),
            declared_lsc=True,
            declared_continuous=True,
        )
        eps = 1e-9
        coarse = Grid(dom, 17)
        assert lsc_audit(m, coarse, eps=eps).passed
        assert lsc_audit(m, coarse.refined(), eps=eps).passed
        assert lsc_audit(m, coarse.refined().refined(), eps=eps).passed

    def test_mask_restricts_audit(self):
        grid = Grid(LINE, 17)
        mask = np.array([x[0] > 0.1 for x in grid.points])
        report = lsc_audit(pinch, grid, eps=1e-6, mask=mask)
        assert report.passed  # the pinch point is masked out

    def test_continuity_audit_region_label(self):
        grid = Grid(LINE, 17)
        report = continuity_audit(pinch, grid, eps=1e-6, region=NONZERO)
        assert report.passed
        assert "x != 0" in report.kind
        assert report.checked == 16

    def test_continuity_audit_flags_jumps(self):
        grid = Grid(LINE, 17)
        report = continuity_audit(pinch, grid, eps=1e-6)
        assert not report.passed


class TestStratification:
    def test_open_first_stratum_passes(self):
        grid = Grid(LINE, 17)
        report = stratification_audit(Stratification((NONZERO, ORIGIN)), grid)
        assert report.passed
        assert report.checked == 17

    def test_closed_first_stratum_fails_openness(self):
        grid = Grid(LINE, 17)
        report = stratification_audit(Stratification((ORIGIN, NONZERO)), grid)
        assert not report.passed
        assert any(v.x == (0.0,) for v in report.violations)
        assert "openness" in report.violations[0].message

    def test_overlapping_strata_fail_coverage(self):
        grid = Grid(LINE, 5)
        report = stratification_audit(Stratification((EVERYWHERE, ORIGIN)), grid)
        assert not report.passed
        assert any("2 strata" in v.message for v in report.violations)

    def test_gap_fails_coverage(self):
        grid = Grid(LINE, 5)
        report = stratification_audit(Stratification((NONZERO,)), grid)
        assert not report.passed
        assert any("no stratum" in v.message for v in report.violations)

    def test_depth_and_nonempty(self):
        assert Stratification((EVERYWHERE,)).depth == 1
        from convsel.errors import StratificationError

        with pytest.raises(StratificationError):
            Stratification(())
