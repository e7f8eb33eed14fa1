import math

import numpy as np
import pytest

from convsel.errors import (
    EvalDomainError,
    InfeasibleBodyError,
    PostconditionError,
    StratificationError,
    UncoveredPointError,
)
from convsel.fields import (
    TAG_CONTINUOUS,
    TAG_LOWER,
    TAG_UPPER,
    Domain,
    Grid,
    ScalarField,
    constant_field,
    squash,
    unsquash,
)
from conftest import NONZERO, ORIGIN
from convsel.maps import EVERYWHERE, Stratification
from convsel.sandwich import region_audit, sandwich_select
from reference.fields_pointwise import lift
from reference.maps_pointwise import PointwiseRegion
from reference.sandwich_pointwise import (
    base_midpoint,
    damp_to_safe,
    equalizer_glue,
    interior_adjust,
    pointwise_levels,
    reduce_to_bounded,
)

LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))
WIDE = Domain(1, boxes=(((-2.0,), (2.0,)),))
NEVER = PointwiseRegion(lambda x: False, "empty")

PUNCTURED = Stratification((NONZERO, ORIGIN))
TRIVIAL = Stratification((EVERYWHERE,))


def field(domain, fn, tag=TAG_CONTINUOUS):
    return lift(domain, fn, tag=tag)


class TestReduceToBounded:
    def test_flag_and_tags(self):
        f = field(LINE, lambda x: x[0], tag=TAG_UPPER)
        g = field(LINE, lambda x: x[0] + 1.0, tag=TAG_LOWER)
        f_c, g_c = reduce_to_bounded(f, g)
        assert f_c.tag == TAG_UPPER and g_c.tag == TAG_LOWER

    def test_values_squashed(self):
        f = constant_field(LINE, 3.0)
        f_c, _ = reduce_to_bounded(f, f)
        assert f_c([0.0]) == pytest.approx(squash(3.0), abs=1e-15)

    def test_infinities_land_on_endpoints(self):
        f = constant_field(LINE, -math.inf)
        g = constant_field(LINE, math.inf)
        f_c, g_c = reduce_to_bounded(f, g)
        assert f_c([0.0]) == -1.0
        assert g_c([0.0]) == 1.0


class TestBaseMidpoint:
    def test_value(self):
        h = base_midpoint(constant_field(LINE, -0.5), constant_field(LINE, 0.25))
        assert h([0.3]) == pytest.approx(-0.125)
        assert h.tag == TAG_CONTINUOUS

    def test_rejects_infinite_input(self):
        h = base_midpoint(constant_field(LINE, -math.inf), constant_field(LINE, 1.0))
        with pytest.raises(EvalDomainError, match="compress"):
            h([0.0])


class TestEqualizerGlue:
    def setup_method(self):
        self.E = WIDE
        self.f = field(WIDE, lambda x: x[0] ** 2 - 1.0, tag=TAG_UPPER)
        self.g = field(WIDE, lambda x: abs(x[0] ** 2 - 1.0), tag=TAG_LOWER)
        self.U = PointwiseRegion(lambda x: abs(x[0]) > 1.0, "|x| > 1")

    def test_values_on_the_three_zones(self):
        h2, X = equalizer_glue(self.f, self.g, self.U, grid=Grid(self.E, 33))
        # off U the glue is the zero function
        assert h2([0.0]) == 0.0
        assert h2([1.0]) == 0.0
        assert h2([-1.0]) == 0.0
        # on U the envelopes agree, so X fills all of U and the glue
        # carries the common value
        assert X(np.array([2.0]))
        assert h2([2.0]) == pytest.approx(3.0)
        assert h2([-1.5]) == pytest.approx(1.25)

    def test_empty_u_gives_zero_function(self):
        h2, X = equalizer_glue(self.f, self.g, NEVER)
        for x in np.linspace(-2, 2, 9):
            assert h2([x]) == 0.0
            assert not X(np.array([x]))

    def test_uncovered_point_raises(self):
        # inside U but away from the equality locus: the glue's domain
        # genuinely excludes the point
        f = constant_field(self.E, -1.0)
        g = constant_field(self.E, 1.0)
        h2, _ = equalizer_glue(f, g, self.U)
        with pytest.raises(UncoveredPointError):
            h2([2.0])

    def test_precondition_sign_violation(self):
        f = constant_field(self.E, 0.5)  # f > 0 off U
        g = constant_field(self.E, 1.0)
        with pytest.raises(PostconditionError, match="precondition"):
            equalizer_glue(f, g, self.U, grid=Grid(self.E, 9))

    def test_precondition_strictness_violation(self):
        f = constant_field(self.E, 0.0)  # gap positive, f not < 0
        g = constant_field(self.E, 1.0)
        with pytest.raises(PostconditionError, match="strictness"):
            equalizer_glue(f, g, self.U, grid=Grid(self.E, 9))

    def test_previous_level_subtracted(self):
        h_prev = constant_field(self.E, -1.0)
        h2, X = equalizer_glue(self.f, self.g, self.U, h_prev=h_prev)
        assert h2([2.0]) == pytest.approx(4.0)  # (x^2 - 1) - (-1) at x = 2


class TestInteriorAdjust:
    def test_case_table(self):
        E = LINE
        V = EVERYWHERE
        floor_zone = PointwiseRegion(lambda x: x[0] < 0.0, "Z1")
        ceil_zone = PointwiseRegion(lambda x: x[0] > 0.0, "Z2")
        f2 = field(E, lambda x: 0.0 if x[0] < 0 else -4.0)
        g2 = field(E, lambda x: 4.0 if x[0] < 0 else 0.0)
        eta1 = constant_field(E, 1.0)
        eta2 = constant_field(E, 3.0)
        h4 = interior_adjust(f2, g2, V, floor_zone, ceil_zone, eta1, eta2)
        # floor caught up: min(f2 + eta1, midpoint) = min(0 + 1, 2) = 1
        assert h4([-0.5]) == pytest.approx(1.0)
        # ceiling caught up: max(g2 - eta2, midpoint) = max(0 - 3, -2) = -2
        assert h4([0.5]) == pytest.approx(-2.0)

    def test_zero_off_v(self):
        h4 = interior_adjust(
            constant_field(LINE, 0.0),
            constant_field(LINE, 1.0),
            NEVER,
            EVERYWHERE,
            NEVER,
            constant_field(LINE, 1.0),
            constant_field(LINE, 1.0),
        )
        assert h4([0.5]) == 0.0

    def test_uncovered_inside_v(self):
        h4 = interior_adjust(
            constant_field(LINE, -1.0),
            constant_field(LINE, 1.0),
            EVERYWHERE,
            NEVER,
            NEVER,
            constant_field(LINE, 1.0),
            constant_field(LINE, 1.0),
        )
        with pytest.raises(UncoveredPointError):
            h4([0.0])


class TestDampToSafe:
    def test_balanced_damping(self):
        # phi_W = min(h5-f, g-h5)+ = min(5, 3) = 3 and
        # phi_B = min(-f, g)+ = min(3, 5) = 3, so delta = 1/2 and the
        # damped value is h5/2
        E = LINE
        h, delta, W = damp_to_safe(
            constant_field(E, 2.0),
            constant_field(E, -3.0),
            constant_field(E, 5.0),
            EVERYWHERE,
            NEVER,
            NEVER,
        )
        assert delta([0.2]) == pytest.approx(0.5)
        assert h([0.2]) == pytest.approx(1.0)
        assert not W(np.array([0.2]))

    def test_escaped_extension_is_zeroed(self):
        # h5 = 6 >= g = 5: the point lands in W, phi_W = 0, h = 0
        E = LINE
        h, delta, W = damp_to_safe(
            constant_field(E, 6.0),
            constant_field(E, -3.0),
            constant_field(E, 5.0),
            EVERYWHERE,
            NEVER,
            NEVER,
        )
        assert W(np.array([0.0]))
        assert delta([0.0]) == 0.0
        assert h([0.0]) == 0.0

    def test_h5_kept_on_s(self):
        # off V everything lands in S and h5 passes through untouched
        E = LINE
        h, _, _ = damp_to_safe(
            constant_field(E, 6.0),
            constant_field(E, -3.0),
            constant_field(E, 5.0),
            NEVER,
            NEVER,
            NEVER,
        )
        assert h([0.0]) == 6.0

    def test_degenerate_hinges_raise(self):
        # f = 0 makes phi_B = 0 and h5 = f makes phi_W = 0: delta has no
        # consistent value, which the construction upstream must prevent
        E = LINE
        _, delta, _ = damp_to_safe(
            constant_field(E, 0.0),
            constant_field(E, 0.0),
            constant_field(E, 5.0),
            EVERYWHERE,
            NEVER,
            NEVER,
        )
        with pytest.raises(PostconditionError, match="upstream"):
            delta([0.0])


def spike_pair():
    """Upper-sc floor spiking to 1 at the origin under a constant ceiling."""
    f = lift(
        LINE, lambda x: 1.0 if x[0] == 0.0 else 0.0, tag=TAG_UPPER, name="spike"
    )
    g = constant_field(LINE, 2.0)
    return f, g


def mixed_pair():
    f = lift(
        LINE, lambda x: 0.5 if x[0] == 0.0 else x[0], tag=TAG_UPPER
    )
    g = lift(
        LINE, lambda x: 0.6 if x[0] == 0.0 else x[0] + 1.0, tag=TAG_LOWER
    )
    return f, g


class TestSandwichSelect:
    def test_equal_envelopes_reproduce_the_function(self):
        f = field(LINE, lambda x: x[0])
        h, trace = sandwich_select(f, f, TRIVIAL, resolution=17)
        for x in np.linspace(-1, 1, 21):
            assert h([x]) == pytest.approx(x, abs=1e-9)

    def test_unconstrained_selection_is_zero(self):
        f = constant_field(LINE, -math.inf)
        g = constant_field(LINE, math.inf)
        h, _ = sandwich_select(f, g, TRIVIAL, resolution=17)
        for x in np.linspace(-1, 1, 21):
            v = h([x])
            assert math.isfinite(v)
            assert v == pytest.approx(0.0, abs=1e-12)

    def test_spike_instance(self):
        f, g = spike_pair()
        h, trace = sandwich_select(f, g, PUNCTURED, resolution=33)
        # at the origin the selection is the (decompressed) midpoint of
        # the squashed envelope values 1 and 2
        pinned = unsquash(0.5 * (squash(1.0) + squash(2.0)))
        assert h([0.0]) == pytest.approx(pinned, abs=1e-12)
        assert 1.0 < h([0.0]) < 2.0
        for x in np.linspace(-1, 1, 41):
            vf, vg, vh = f([x]), g([x]), h([x])
            assert vf < vh < vg

    def test_spike_region_audit(self):
        f, g = spike_pair()
        _, trace = sandwich_select(f, g, PUNCTURED, resolution=33)
        report = region_audit(trace, Grid(LINE, 65))
        assert report.passed

    def test_mixed_instance_threads_the_needle(self):
        f, g = mixed_pair()
        h, _ = sandwich_select(f, g, PUNCTURED, resolution=33)
        assert 0.5 < h([0.0]) < 0.6
        pinned = unsquash(0.5 * (squash(0.5) + squash(0.6)))
        assert h([0.0]) == pytest.approx(pinned, abs=1e-12)
        for x in np.linspace(-1, 1, 81):
            assert f([x]) < h([x]) < g([x])

    def test_crossed_envelopes_rejected(self):
        f = constant_field(LINE, 1.0)
        g = constant_field(LINE, 0.0)
        with pytest.raises(InfeasibleBodyError, match="empty interval"):
            sandwich_select(f, g, TRIVIAL, resolution=9)

    @pytest.mark.parametrize("failing", ["floor", "ceiling"])
    @pytest.mark.parametrize("cross,fail", [(-0.5, 0.5), (0.5, -0.5)])
    def test_the_first_bad_construction_point_raises(self, failing, cross, fail):
        # the envelopes cross at one construction point and one of them
        # fails to evaluate at another: the first in grid order raises
        def value(x, v, name):
            if name == failing and x[0] == fail:
                raise EvalDomainError(f"{name} undefined at {fail}")
            return v

        f = field(LINE, lambda x: value(x, 1.0 if x[0] == cross else 0.0, "floor"))
        g = field(LINE, lambda x: value(x, 0.5, "ceiling"))
        if cross < fail:
            want = InfeasibleBodyError, f"empty interval: f(x) > g(x) at x=[{cross}]"
        else:
            want = EvalDomainError, f"{failing} undefined at {fail}"
        with pytest.raises(want[0]) as info:
            sandwich_select(f, g, TRIVIAL, resolution=9)
        assert str(info.value) == want[1]

    def test_a_crossing_seen_on_the_batch_is_found_by_halves(self):
        # every envelope evaluates and the floor rises above the ceiling at
        # the last construction point only: the batch and then a half at
        # each halving name that point, in at most 2⌈log₂ 65⌉ + 1 batches
        batches = []

        def floor(X):
            batches.append(X.shape[0])
            return np.where(X[:, 0] == 1.0, 1.0, 0.0)

        f = ScalarField(LINE, batch=floor, tag=TAG_CONTINUOUS)
        g = constant_field(LINE, 0.5)
        with pytest.raises(InfeasibleBodyError) as info:
            sandwich_select(f, g, TRIVIAL, resolution=65)
        assert str(info.value) == "empty interval: f(x) > g(x) at x=[1.0]"
        assert batches[0] == 65 and len(batches) <= 2 * 7 + 1

    def test_spike_needs_the_right_stratification(self):
        # with a single stratum the floor must be continuous on it; the
        # spike is not, and the pre-audit reports that instead of running
        f, g = spike_pair()
        with pytest.raises(StratificationError, match="not continuous"):
            sandwich_select(f, g, TRIVIAL, resolution=33)

    def test_non_partition_rejected(self):
        f, g = spike_pair()
        bad = Stratification((EVERYWHERE, ORIGIN))
        with pytest.raises(StratificationError, match="stratification audit"):
            sandwich_select(f, g, bad, resolution=9)

    def test_wrong_tag_rejected(self):
        # a floor that jumps down is not upper semicontinuous; the global
        # tag audit catches it even though each stratum is fine
        f = lift(
            LINE, lambda x: -1.0 if x[0] == 0.0 else 0.0, tag=TAG_UPPER
        )
        g = constant_field(LINE, 2.0)
        with pytest.raises(StratificationError, match="semicontinuity"):
            sandwich_select(f, g, PUNCTURED, resolution=33)

    def test_raising_the_ceiling_keeps_the_sandwich(self):
        # the selection computed for (f, g) stays a valid sandwich for
        # (f, g') whenever g' >= g, including strictness on the zone
        # where the original pair was strictly separated
        f, g = spike_pair()
        h, _ = sandwich_select(f, g, PUNCTURED, resolution=33)
        g_up = constant_field(LINE, 3.0)
        for x in np.linspace(-1, 1, 81):
            vf, vg, vup, vh = f([x]), g([x]), g_up([x]), h([x])
            assert vf - 1e-9 <= vh <= vup + 1e-9
            if vg - vf > 1e-3:
                assert vf < vh < vup

    def test_trace_records_levels(self):
        f, g = spike_pair()
        _, trace = sandwich_select(f, g, PUNCTURED, resolution=17)
        assert len(trace.levels) == 2
        assert trace.levels[0].kind == "base"
        assert trace.outer.kind == "glue"
        assert set(pointwise_levels(trace)[-1].regions) >= {"U", "X", "V", "Z1", "Z2", "S", "W"}
