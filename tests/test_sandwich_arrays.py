"""The sandwich selection on arrays against its pointwise reference.

Each glue level's array pass, ``h.many`` and the array ``region_audit``
must agree bit for bit with the pointwise fields that
``reference.sandwich_pointwise`` rebuilds around the trace and with the
point-by-point audit kept below, on every ``s_*`` fixture and on a drawn
family of two-stratum interval maps.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import assert_same_bits
from convsel import sandwich
from convsel.errors import (
    ConvselError,
    EvalDomainError,
    PostconditionError,
    UncoveredPointError,
)
from convsel.fields import AuditReport, Grid, Violation, constant_field
from convsel.maps import SetValuedMap, envelopes
from convsel.sandwich import region_audit, sandwich_select
from convsel.specio.loader import load_spec, load_spec_dict
from convsel.urysohn import ClosedSet
from golden.capture import HOLE_AT_ONE_32ND
from reference.fields_pointwise import compress_field, envelopes_pointwise, lift_once
from reference.maps_pointwise import PointwiseRegion, load_pointwise
from reference.sandwich_pointwise import (
    check_glue_point,
    damp_to_safe,
    pointwise_levels,
    pointwise_selection,
)

FIXTURES = ("s_free", "s_kink", "s_line", "s_mixed", "s_parab", "s_spike")


def pointwise_region_audit(levels, grid: Grid) -> AuditReport:
    """The point-by-point region audit the array version replaced, over
    the levels of :func:`pointwise_levels`."""
    violations = []
    checked = 0
    for level in levels:
        if level.kind != "glue":
            continue
        R = level.regions
        U, X, V, Z1, Z2, S, W = (
            R["U"], R["X"], R["V"], R["Z1"], R["Z2"], R["S"], R["W"]
        )
        f2, g2, h4, delta = level.f_level, level.g_level, level.h4, level.delta
        for x in grid.points:
            checked += 1
            in_v = V(x)
            if not (S(x) or in_v):
                violations.append(Violation(tuple(x), 1.0, message="S ∪ V misses a point"))
            if X(x) and not U(x):
                violations.append(Violation(tuple(x), 1.0, message="X escapes U"))
            if in_v != (U(x) and not X(x)):
                violations.append(Violation(tuple(x), 1.0, message="V is not U∖X"))
            if not in_v:
                continue
            in_b = Z1(x) or Z2(x)
            if W(x) and in_b:
                violations.append(
                    Violation(tuple(x), 1.0, message="W meets V∩(Z1∪Z2)")
                )
                continue
            d = delta(x)
            if not -1e-15 <= d <= 1.0 + 1e-15:
                violations.append(
                    Violation(tuple(x), abs(d - 0.5) - 0.5, message="delta outside [0,1]")
                )
            if in_b and d != 1.0:
                violations.append(
                    Violation(tuple(x), 1.0 - d, message="delta != 1 on V∩(Z1∪Z2)")
                )
            if W(x) and d != 0.0:
                violations.append(
                    Violation(tuple(x), d, message="delta != 0 on W")
                )
            if in_b:
                v4, vf, vg = h4(x), f2(x), g2(x)
                if not vf < v4 < vg:
                    violations.append(
                        Violation(tuple(x), max(vf - v4, v4 - vg),
                                  message="h4 not strictly inside [f2, g2] on V∩(Z1∪Z2)")
                    )
                if Z1(x) and not v4 > 0.0:
                    violations.append(
                        Violation(tuple(x), -v4, message="h4 <= 0 on Z1∩V")
                    )
                if Z2(x) and not v4 < 0.0:
                    violations.append(
                        Violation(tuple(x), v4, message="h4 >= 0 on Z2∩V")
                    )
    return AuditReport(
        kind="sandwich-regions",
        passed=not violations,
        violations=tuple(violations),
        checked=checked,
    )


def defined(field, x) -> float:
    """``field(x)``, or NaN where the pointwise field refuses the point."""
    try:
        return field(x)
    except (UncoveredPointError, PostconditionError):
        return np.nan


def check_level_passes(trace, P: np.ndarray):
    fP = trace.f_compressed.many(P)
    gP = trace.g_compressed.many(P)
    for level, ref in zip(trace.levels, pointwise_levels(trace)):
        a = level.arrays(P, fP, gP)
        assert_same_bits(a["total"], [ref.total(x) for x in P])
        if level.kind != "glue":
            continue
        for key in ("U", "X", "V", "Z1", "Z2", "S", "W"):
            np.testing.assert_array_equal(a[key], ref.regions[key].mask(P), err_msg=key)
        for key, field in (("h1", ref.h1), ("h3", ref.h3), ("h5", ref.h5),
                           ("f2", ref.f_level), ("g2", ref.g_level),
                           ("h2", ref.h2), ("h4", ref.h4), ("delta", ref.delta)):
            assert_same_bits(a[key], [defined(field, x) for x in P])


def check_bakes(trace, P: np.ndarray):
    """Each extension carries its source's values on its construction cloud."""
    G = trace.construction_grid.points
    fG = trace.f_compressed.many(G)
    gG = trace.g_compressed.many(G)
    inner = None
    for level, ref in zip(trace.levels, pointwise_levels(trace)):
        a = level.arrays(G, fG, gG)
        if level.kind == "glue":
            for ext, source, on in ((ref.h1, inner.total, ~a["U"]),
                                    (ref.h3, ref.h2, ~a["U"] | a["X"]),
                                    (ref.h5, ref.h4, a["S"])):
                cloud = G[on]
                assert_same_bits(ext.many(cloud), [source(x) for x in cloud])
        inner = ref


def check_selection(h, trace, grid: Grid):
    P = grid.points
    levels = pointwise_levels(trace)
    assert_same_bits(h.many(P), [pointwise_selection(levels)(x) for x in P])
    assert_same_bits(trace.h_compressed.many(P), [levels[-1].total(x) for x in P])
    check_level_passes(trace, P)
    assert region_audit(trace, grid) == pointwise_region_audit(levels, grid)


def select(spec, resolution: int):
    """The selection and its trace, whose compressed envelopes, read by
    the reference levels, are the pointwise envelope oracle's."""
    f, g = envelopes(spec.map)
    h, trace = sandwich_select(f, g, spec.stratification, resolution=resolution)
    f_ref, g_ref = envelopes_pointwise(load_pointwise(spec.raw)[0])
    return h, dataclasses.replace(
        trace, f_compressed=lift_once(compress_field(f_ref)),
        g_compressed=lift_once(compress_field(g_ref)),
    )


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_pointwise(name, specs_dir):
    spec = load_spec(str(specs_dir / f"{name}.json"))
    h, trace = select(spec, 33)
    check_bakes(trace, trace.construction_grid.points)
    for per_axis in (33, 65):  # the construction grid and a finer one
        check_selection(h, trace, Grid(spec.domain, per_axis))


@pytest.mark.parametrize("per_axis", [17, 65])
@pytest.mark.parametrize("name", FIXTURES)
def test_the_traced_values_of_h_are_its_values_on_the_construction_grid(
    name, per_axis, specs_dir
):
    spec = load_spec(str(specs_dir / f"{name}.json"))
    f, g = envelopes(spec.map)
    h, trace = sandwich_select(f, g, spec.stratification, resolution=per_axis)
    assert_same_bits(trace.h_values, h.many(trace.construction_grid.points))


def forge_regions(a: dict, P: np.ndarray) -> dict:
    """A glue pass's arrays at the points ``P``, forged: V loses the points
    right of 1/2, and both V and X gain the origin, where U does not hold."""
    a = dict(a)
    origin = P[:, 0] == 0.0
    a["V"] = (a["V"] & (P[:, 0] < 0.5)) | origin
    a["X"] = a["X"] | origin
    return a


def forged_trace(specs_dir):
    """The s_mixed trace at 17 with its outer level's regions forged, both
    in its pass and in the arrays the construction kept, and the pointwise
    levels forged alike."""
    spec = load_spec(str(specs_dir / "s_mixed.json"))
    h, trace = select(spec, 17)
    level = trace.outer
    real = level.arrays

    def forged(P, fP, gP):
        return forge_regions(real(P, fP, gP), P)

    levels = pointwise_levels(trace)
    real_regions = levels[-1].regions
    regions = dict(real_regions)
    regions["V"] = PointwiseRegion(
        lambda x: (real_regions["V"](x) and x[0] < 0.5) or x[0] == 0.0, "forged V"
    )
    regions["X"] = PointwiseRegion(lambda x: real_regions["X"](x) or x[0] == 0.0, "forged X")
    kept = forge_regions(level.on_grid, trace.construction_grid.points)
    bad = dataclasses.replace(
        trace,
        levels=(*trace.levels[:-1],
                dataclasses.replace(level, arrays=forged, on_grid=kept)),
    )
    bad_levels = [*levels[:-1], dataclasses.replace(levels[-1], regions=regions)]
    return spec, bad, bad_levels


def check_forged_report(specs_dir, per_axis: int):
    # a forged trace, so one point fails several checks and their order shows
    spec, bad, bad_levels = forged_trace(specs_dir)
    grid = Grid(spec.domain, per_axis)
    report = region_audit(bad, grid)
    at_origin = [v.message for v in report.violations if v.x == (0.0,)]
    assert at_origin[:2] == ["X escapes U", "V is not U∖X"]
    assert report == pointwise_region_audit(bad_levels, grid)


def test_region_audit_reports_violations_like_the_sweep(specs_dir):
    # the construction grid: the audit reads the forged arrays it kept
    check_forged_report(specs_dir, 17)


def test_region_audit_on_a_finer_grid_runs_the_forged_pass(specs_dir):
    check_forged_report(specs_dir, 33)


@pytest.mark.parametrize("name", FIXTURES)
def test_region_audit_on_the_construction_grid_reads_the_kept_arrays(
    name, specs_dir, monkeypatch
):
    spec = load_spec(str(specs_dir / f"{name}.json"))
    f, g = envelopes(spec.map)
    h, trace = sandwich_select(f, g, spec.stratification, resolution=33)
    grid = Grid(spec.domain, 33)  # its points are the construction grid's
    P = grid.points
    fP, gP = trace.f_compressed.many(P), trace.g_compressed.many(P)
    glue = [level for level in trace.levels if level.kind == "glue"]
    for level in glue:
        a = level.arrays(P, fP, gP)
        assert sorted(level.on_grid) == sorted(sandwich._AUDITED)
        for key, kept in level.on_grid.items():
            assert_same_bits(kept, a[key])
    # with another construction grid on record, the audit runs the passes
    elsewhere = dataclasses.replace(trace, construction_grid=Grid(spec.domain, 5))
    scans = []
    real = ClosedSet._scan

    def counted(self, X, ranked=None):
        scans.append(len(X))
        return real(self, X, ranked)

    monkeypatch.setattr(ClosedSet, "_scan", counted)
    rerun = region_audit(elsewhere, grid)
    if name == "s_mixed":
        assert scans  # its pass extends from clouds (s_spike's bakes are constant)
    scans.clear()
    assert region_audit(trace, grid) == rerun
    assert scans == []


def two_stratum_problem(n, slope, beta, width, lo_frac, hi_frac, touch):
    """An interval map off the origin whose floor jumps up and ceiling
    jumps down at it; with ``touch`` the envelopes meet at x1 = 1/2."""
    r = "abs(x1)" if n == 1 else "(x1^2 + x2^2)"
    lo = f"{slope}*x1 + {beta}" + (f" - 0.25*x2" if n == 2 else "")
    gap = f"{width}*abs(x1 - 0.5)" if touch else f"{width}"
    at0 = width * (0.5 if touch else 1.0)
    box = {"lo": [-1.0] * n, "hi": [1.0] * n}
    return {
        "ambient_dim": n, "output_dim": 1,
        "domain": {"boxes": [box]},
        "strata": [[f"0 < {r}"], [f"{r} <= 0"]],
        "pieces": [
            {"region": [f"0 < {r}"],
             "body": {"interval": {"lo": lo, "hi": f"{lo} + {gap}"}}},
            {"region": [],
             "body": {"interval": {"lo": repr(beta + lo_frac * at0),
                                   "hi": repr(beta + hi_frac * at0)}}},
        ],
        "tags": {"declared_lsc": True},
    }


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n=st.sampled_from([1, 1, 2]),
    slope=st.floats(-2.0, 2.0).map(lambda v: round(v, 3)),
    beta=st.floats(-0.5, 0.5).map(lambda v: round(v, 3)),
    width=st.floats(0.05, 1.5).map(lambda v: round(v, 3)),
    fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    touch=st.booleans(),
)
def test_drawn_two_stratum_maps_match_pointwise(n, slope, beta, width, fracs, touch):
    raw = two_stratum_problem(n, slope, beta, width, fracs[0], fracs[1], touch)
    spec = load_spec_dict(json.loads(json.dumps(raw)))
    resolution = 17 if n == 1 else 9
    try:
        h, trace = select(spec, resolution)
    except ConvselError:
        return  # nothing to compare: the construction refused the problem
    check_bakes(trace, trace.construction_grid.points)
    check_selection(h, trace, Grid(spec.domain, 2 * resolution - 1))


# --- the one-row rule: a point is a batch of one row ---------------------------


def raised(fn, *args):
    """The type and text of what ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", FIXTURES)
def test_one_point_matches_the_pointwise_levels(name, specs_dir):
    # 41 points per axis: off the construction lattice of 33 but for the
    # ends and the middle, so the extensions run their ratio branch
    spec = load_spec(str(specs_dir / f"{name}.json"))
    h, trace = select(spec, 33)
    levels = pointwise_levels(trace)
    P = Grid(spec.domain, 41).points
    assert_same_bits([h(x) for x in P], [pointwise_selection(levels)(x) for x in P])
    assert_same_bits([trace.h_compressed(x) for x in P], [levels[-1].total(x) for x in P])
    for level, ref in zip(trace.levels, levels):
        assert_same_bits([level.total(x) for x in P], [ref.total(x) for x in P])


def test_an_evaluation_error_is_the_pointwise_one():
    # 1/32 is off the construction lattice of 17, so the selection is
    # built; evaluating there divides by zero in the map itself
    spec = load_spec_dict(json.loads(json.dumps(HOLE_AT_ONE_32ND)))
    h, trace = select(spec, 17)
    want = raised(pointwise_selection(pointwise_levels(trace)), [0.03125])
    assert want == (EvalDomainError, "division by zero")
    assert raised(h, [0.03125]) == want
    assert raised(h.many, Grid(spec.domain, 65).points) == want
    assert raised(trace.h_compressed, [0.03125]) == want


def test_a_failing_batch_is_searched_once_at_the_outermost_many(monkeypatch):
    # one failing batch, then the halves down to the first failing row
    # (row 33 of 65, x = 1/32): at most 2⌈log₂ 65⌉ + 1 batches, each
    # reading the map's bounds once for both envelopes
    spec = load_spec_dict(json.loads(json.dumps(HOLE_AT_ONE_32ND)))
    h, _ = select(spec, 17)
    calls = dict.fromkeys(("evaluate", "coord_bounds_many"), 0)
    for name in calls:
        def counted(*args, real=getattr(SetValuedMap, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(SetValuedMap, name, counted)
    with pytest.raises(EvalDomainError, match="division by zero"):
        h.many(Grid(spec.domain, 65).points)
    assert calls["evaluate"] == 0
    assert calls["coord_bounds_many"] <= 2 * 7 + 1


def test_an_undefined_delta_raises_the_pointwise_message(specs_dir):
    # a forged pass: h5 is 0 and S drops Z1 ∪ Z2, so at a point of
    # V ∩ (Z1 ∪ Z2) both hinges vanish off S
    spec = load_spec(str(specs_dir / "s_mixed.json"))
    h, trace = select(spec, 17)
    P = trace.construction_grid.points
    a = trace.outer.arrays(P, trace.f_compressed.many(P), trace.g_compressed.many(P))
    x = P[np.argmax(a["V"] & (a["Z1"] | a["Z2"]))]
    ref = pointwise_levels(trace)[-1]
    zero = constant_field(spec.domain, 0.0)
    never = PointwiseRegion(lambda x: False, "empty")
    h_ref, _, _ = damp_to_safe(zero, ref.f_level, ref.g_level, ref.regions["V"], never, never)
    want = raised(h_ref, x)
    assert want[0] is PostconditionError

    forged = trace.outer.arrays
    real_split = forged.split

    def split(P, a):
        real_split(P, a)
        a["S"] = ~a["V"]

    forged.split = split
    forged.h5 = zero
    assert raised(h, x) == want
    assert raised(trace.outer.total, x) == want


# values on and next to the STRICT_GAP thresholds, and anything else
gap_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 2e-9, -2e-9, 5e-10, -5e-10]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(gap_values, gap_values), min_size=1, max_size=12))
def test_the_masked_glue_check_fails_where_the_loop_does(rows):
    vf, vg = np.array(rows).T
    P = np.arange(vf.size, dtype=float).reshape(-1, 1)

    def loop():
        for x, a, b in zip(P, vf.tolist(), vg.tolist()):
            check_glue_point(x, a, b)

    try:
        loop()
    except PostconditionError as exc:
        with pytest.raises(PostconditionError) as info:
            sandwich._check_glue(P, vf, vg)
        assert str(info.value) == str(exc)
    else:
        sandwich._check_glue(P, vf, vg)
