"""The two-cell confirmation kernel against the per-edge loops it replaced.

``fields.confirmed_edges`` sweeps every directed grid edge on arrays, and
the semicontinuity, lsc, continuity and stratification audits call it.
The loops of ``reference.audits_pointwise`` are the audits as they were
written edge by edge; every audit must give the same violations, in the
same order, with bit-equal deficits and the same neighbour and probe: on
every spec fixture, on drawn value arrays with infinities, under masks
that cut the far cell, on drawn stratum labellings, and on grids with
several boxes and isolated points.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from convsel.errors import ConvselError, EvalDomainError
from convsel.fields import (
    TAG_CONTINUOUS,
    TAG_LOWER,
    TAG_UNKNOWN,
    TAG_UPPER,
    Domain,
    Grid,
    confirmed_edges,
    default_eps,
    semicontinuity_audit,
    semicontinuity_audit_values,
)
from convsel.geometry import Interval
from convsel.maps import (
    Stratification,
    continuity_audit,
    envelopes,
    lsc_audit,
    stratification_audit,
)
from convsel.specio.loader import load_spec

from conftest import SPECS
from reference.audits_pointwise import (
    PointwiseProbes,
    ref_lsc,
    ref_semicontinuity,
    ref_stratification,
)
from reference.fields_pointwise import envelopes_pointwise, lift
from reference.maps_pointwise import EVERYWHERE, PointwiseMap, PointwiseRegion, load_pointwise

FIXTURES = sorted(p.stem for p in SPECS.glob("*.json"))


# --- comparison ---------------------------------------------------------------


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def assert_same_violations(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.message == b.message
        assert bits([a.deficit]) == bits([b.deficit])
        for name in ("x", "neighbor", "probe"):
            u, v = getattr(a, name), getattr(b, name)
            assert (u is None) == (v is None)
            if u is not None:
                assert all(type(c) is float for c in u)
                assert bits(u) == bits(v)


def outcome(fn, *args, **kwargs):
    """The audit's violations, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except ConvselError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
    else:
        assert_same_violations(got, want)


# --- spec fixtures --------------------------------------------------------------


@pytest.mark.parametrize("per_axis", [9, 17, 33])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_audits_match_the_loops(name, per_axis):
    spec = load_spec(str(SPECS / f"{name}.json"))
    oracle, strata = load_pointwise(spec.raw)
    grid = Grid(spec.domain, per_axis)
    strat = spec.stratification

    got = outcome(lambda: stratification_audit(strat, grid).violations)
    assert_same_outcome(got, outcome(ref_stratification, strata, grid))

    # the default eps passes nearly every fixture; eps = 0 flags every
    # jump the slope allowance does not cover, so order and deficits show
    probed = PointwiseProbes(oracle, grid)
    for eps in (None, 0.0):
        got = outcome(lambda: lsc_audit(spec.map, grid, eps=eps).violations)
        assert_same_outcome(got, outcome(ref_lsc, probed, eps=eps))
        for region in strat.strata:
            mask = region.mask(grid.points)
            got = outcome(
                lambda: continuity_audit(spec.map, grid, eps=eps, region=region).violations
            )
            assert_same_outcome(got, outcome(ref_lsc, probed, eps=eps, mask=mask))

    if spec.output_dim != 1:
        return
    for fld, ref in zip(envelopes(spec.map), envelopes_pointwise(oracle)):
        try:
            values = np.array([ref(x) for x in grid.points])
        except ConvselError:
            with pytest.raises(ConvselError):
                semicontinuity_audit(fld, grid, tag=TAG_CONTINUOUS)
            continue
        for eps in (default_eps(grid), 0.0):
            if fld.tag != TAG_UNKNOWN:
                assert_same_violations(
                    semicontinuity_audit(fld, grid, eps=eps).violations,
                    ref_semicontinuity(values, grid, fld.tag, eps),
                )
            for region in strat.strata:
                mask = region.mask(grid.points)
                want = ref_semicontinuity(values, grid, TAG_CONTINUOUS, eps, mask=mask)
                rep = semicontinuity_audit(fld, grid, eps=eps, tag=TAG_CONTINUOUS, mask=mask)
                assert_same_violations(rep.violations, want)
                rep = semicontinuity_audit_values(
                    values, grid, TAG_CONTINUOUS, eps=eps, mask=mask
                )
                assert_same_violations(rep.violations, want)


# --- drawn grids, values, masks and labellings ----------------------------------

DOMAINS = (
    Domain(1, boxes=(((-1.0,), (1.0,)),)),
    Domain(1, boxes=(((0.0,), (1.0,)), ((2.0,), (3.0,))), points=((5.0,), (7.0,))),
    Domain(2, boxes=(((0.0, 0.0), (1.0, 1.0)),)),
    Domain(
        2,
        boxes=(((0.0, 0.0), (1.0, 1.0)), ((2.0, 0.0), (2.0, 1.0))),
        points=((4.0, 4.0),),
    ),
    Domain(1, points=((0.0,), (1.0,))),  # no edges at all
)


@st.composite
def grids(draw):
    domain = draw(st.sampled_from(DOMAINS))
    return Grid(domain, draw(st.integers(2, 7 if domain.ambient_dim == 2 else 12)))


def masks(n):
    return st.one_of(
        st.none(),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    )


VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, 0.0, -0.0]),
    st.floats(-3.0, 3.0, allow_nan=False),
    st.integers(-2, 2).map(float),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_drawn_values_match_the_loop(data):
    grid = data.draw(grids())
    n = len(grid)
    values = np.array(data.draw(st.lists(VALUES, min_size=n, max_size=n)))
    tag = data.draw(st.sampled_from([TAG_LOWER, TAG_UPPER, TAG_CONTINUOUS]))
    # a negative eps flags equal values, equal infinities included
    eps = data.draw(st.sampled_from([None, 0.0, 0.5, -0.5]))
    mask = data.draw(masks(n))
    rep = semicontinuity_audit_values(values, grid, tag, eps=eps, mask=mask)
    want = ref_semicontinuity(
        values, grid, tag, default_eps(grid) if eps is None else eps, mask=mask
    )
    assert_same_violations(rep.violations, want)
    assert rep.passed == (not want)
    assert rep.checked == (n if mask is None else int(mask.sum()))


def interval_map(domain, lo_of, hi_of) -> PointwiseMap:
    return PointwiseMap(
        domain, 1, ((EVERYWHERE, lambda x: Interval(lo_of(x), hi_of(x))),), declared_lsc=True,
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_drawn_masks_on_a_jumping_map_match_the_loop(data):
    grid = data.draw(grids())
    n = len(grid)
    index = {tuple(p): i for i, p in enumerate(grid.points.tolist())}
    lows = data.draw(st.lists(st.sampled_from([0.0, 3.0, 6.0]), min_size=n, max_size=n))
    m = interval_map(
        grid.domain,
        lambda x: lows[index[tuple(x.tolist())]],
        lambda x: lows[index[tuple(x.tolist())]] + 1.0,
    )
    mask = data.draw(masks(n))
    eps = data.draw(st.sampled_from([0.0, 0.1]))
    got = lsc_audit(m.library(), grid, eps=eps, mask=mask).violations
    assert_same_violations(got, ref_lsc(PointwiseProbes(m, grid), eps=eps, mask=mask))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drawn_labellings_match_the_loop(data):
    grid = data.draw(grids())
    n = len(grid)
    k = data.draw(st.integers(1, 4))
    index = {tuple(p): i for i, p in enumerate(grid.points.tolist())}
    if data.draw(st.booleans()):  # a partition
        labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        inside = [[lab == j for lab in labels] for j in range(k)]
    else:  # any masks: gaps and overlaps too
        inside = [data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
                  for _ in range(k)]
    strata = tuple(
        PointwiseRegion(lambda x, m=m: m[index[tuple(x.tolist())]], f"C{j}")
        for j, m in enumerate(inside)
    )
    rep = stratification_audit(Stratification(tuple(r.region() for r in strata)), grid)
    want = ref_stratification(strata, grid)
    assert_same_violations(rep.violations, want)
    assert rep.passed == (not want)


# --- the kernel's contract ----------------------------------------------------------


def test_kernel_calls_the_defect_at_most_twice_on_index_arrays():
    grid = Grid(Domain(2, boxes=(((0.0, 0.0), (1.0, 1.0)),)), 5)
    calls = []

    def defect(tails, heads, spacings):
        calls.append((tails.copy(), heads.copy(), spacings.copy()))
        return np.stack([heads - tails, tails - heads], axis=1).astype(float)

    tails, heads, probes, deficits = confirmed_edges(grid, defect)
    assert len(calls) == 2
    edges, spacing = grid.directed_edges()
    np.testing.assert_array_equal(calls[0][0], edges[:, 0])
    np.testing.assert_array_equal(calls[0][2], spacing)
    # the second call goes from each flagged tail to its far cell, at 2x spacing
    far_of = {(t, f): s for (t, _h, f), s in zip(edges.tolist(), spacing.tolist())}
    assert len(calls[1][0]) == int((edges[:, 2] >= 0).sum())
    for t, f, s2 in zip(*(c.tolist() for c in calls[1])):
        assert s2 == 2 * far_of[(t, f)]
    # edge-major, probes ascending within an edge
    order = [(int(np.flatnonzero((edges[:, 0] == t) & (edges[:, 1] == h))[0]), p)
             for t, h, p in zip(tails, heads, probes)]
    assert order == sorted(order)
    assert np.all(deficits > 0)


def test_kernel_without_edges_never_confirms():
    grid = Grid(Domain(1, points=((0.0,), (1.0,))), 9)
    tails, heads, probes, deficits = confirmed_edges(
        grid, lambda t, h, s: np.ones((len(t), 3))
    )
    assert tails.size == heads.size == probes.size == deficits.size == 0


def test_field_audit_evaluates_only_the_mask_and_raises_as_pointwise():
    grid = Grid(Domain(1, boxes=(((0.0,), (1.0,)),)), 9)

    def rule(x):
        if x[0] > 0.6:
            raise EvalDomainError(f"bad point {x[0]}")
        return x[0]

    f = lift(grid.domain, rule, tag=TAG_CONTINUOUS)
    mask = grid.points[:, 0] <= 0.5
    assert semicontinuity_audit(f, grid, mask=mask).passed
    with pytest.raises(EvalDomainError, match="bad point 0.625"):
        semicontinuity_audit(f, grid)
