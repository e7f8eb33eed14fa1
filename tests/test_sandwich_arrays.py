"""The sandwich selection on arrays against its pointwise reference.

Each glue level's array pass, ``h.many`` and the array ``region_audit``
must agree bit for bit with the pointwise fields of the trace and with the
point-by-point audit kept below, on every ``s_*`` fixture and on a drawn
family of two-stratum interval maps.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import assert_same_bits
from convsel.errors import ConvselError, PostconditionError, UncoveredPointError
from convsel.fields import AuditReport, Grid, Violation
from convsel.maps import Region, envelopes
from convsel.sandwich import region_audit, sandwich_select
from convsel.specio.loader import load_spec, load_spec_dict

FIXTURES = ("s_free", "s_kink", "s_line", "s_mixed", "s_parab", "s_spike")


def pointwise_region_audit(trace, grid: Grid) -> AuditReport:
    """The point-by-point region audit the array version replaced."""
    violations = []
    checked = 0
    for level in trace.levels:
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
    for level in trace.levels:
        a = level.arrays(P, fP, gP)
        assert_same_bits(a["total"], [level.total(x) for x in P])
        if level.kind != "glue":
            continue
        for key in ("U", "X", "V", "Z1", "Z2", "S", "W"):
            np.testing.assert_array_equal(a[key], level.regions[key].mask(P), err_msg=key)
        for key, field in (("h1", level.h1), ("h3", level.h3), ("h5", level.h5),
                           ("f2", level.f_level), ("g2", level.g_level),
                           ("h2", level.h2), ("h4", level.h4), ("delta", level.delta)):
            assert_same_bits(a[key], [defined(field, x) for x in P])


def check_bakes(trace, P: np.ndarray):
    """Each extension carries its source's values on its construction cloud."""
    G = trace.construction_grid.points
    fG = trace.f_compressed.many(G)
    gG = trace.g_compressed.many(G)
    inner = None
    for level in trace.levels:
        a = level.arrays(G, fG, gG)
        if level.kind == "glue":
            for ext, source, on in ((level.h1, inner.total, ~a["U"]),
                                    (level.h3, level.h2, ~a["U"] | a["X"]),
                                    (level.h5, level.h4, a["S"])):
                cloud = G[on]
                assert_same_bits(ext.many(cloud), [source(x) for x in cloud])
        inner = level


def check_selection(h, trace, grid: Grid):
    P = grid.points
    assert_same_bits(h.many(P), [h(x) for x in P])
    assert_same_bits(trace.h_compressed.many(P), [trace.h_compressed(x) for x in P])
    check_level_passes(trace, P)
    assert region_audit(trace, grid) == pointwise_region_audit(trace, grid)


def select(spec, resolution: int):
    f, g = envelopes(spec.map)
    return sandwich_select(f, g, spec.stratification, resolution=resolution)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_pointwise(name, specs_dir):
    spec = load_spec(str(specs_dir / f"{name}.json"))
    h, trace = select(spec, 33)
    check_bakes(trace, trace.construction_grid.points)
    for per_axis in (33, 65):  # the construction grid and a finer one
        check_selection(h, trace, Grid(spec.domain, per_axis))


def test_region_audit_reports_violations_like_the_sweep(specs_dir):
    # a forged trace: V loses the points right of 1/2 and both V and X
    # gain the origin, where U does not hold, so one point fails several
    # checks and their order shows
    spec = load_spec(str(specs_dir / "s_mixed.json"))
    h, trace = select(spec, 17)
    level = trace.outer
    real = level.arrays

    def forged(P, fP, gP):
        a = real(P, fP, gP)
        origin = P[:, 0] == 0.0
        a["V"] = (a["V"] & (P[:, 0] < 0.5)) | origin
        a["X"] = a["X"] | origin
        return a

    regions = dict(level.regions)
    regions["V"] = Region(
        lambda x: (level.regions["V"](x) and x[0] < 0.5) or x[0] == 0.0, "forged V"
    )
    regions["X"] = Region(lambda x: level.regions["X"](x) or x[0] == 0.0, "forged X")
    bad = dataclasses.replace(
        trace,
        levels=(*trace.levels[:-1],
                dataclasses.replace(level, arrays=forged, regions=regions)),
    )
    grid = Grid(spec.domain, 17)
    report = region_audit(bad, grid)
    at_origin = [v.message for v in report.violations if v.x == (0.0,)]
    assert at_origin[:2] == ["X escapes U", "V is not U∖X"]
    assert report == pointwise_region_audit(bad, grid)


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
