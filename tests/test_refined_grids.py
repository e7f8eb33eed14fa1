"""Refined grids reuse the values of the grid before them.

``modulus_ratios`` takes each refined grid's values at the points it
shares with the coarser grid from that grid, and evaluates the field only
at the points each halving adds.  These tests hold it to the full
evaluation (``continuity_modulus`` on every grid, each evaluated whole),
bit for bit, and hold ``Grid.refined_rows`` to the coordinates.
``continuity_modulus`` takes the jumps along each axis of each box's
lattice; it is held to the jumps over every directed edge
(``reference.fields_pointwise.continuity_modulus_edges``), and neither the
loader nor the modulus ratios build a grid's edges.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import SPECS, assert_same_bits
from convsel.errors import EvalDomainError
from convsel.fields import (
    Domain,
    Grid,
    ScalarField,
    VectorField,
    _refined_values,
    continuity_modulus,
    grid_size,
    modulus_ratios,
)
from convsel.maps import envelopes
from convsel.sandwich import sandwich_select
from convsel.selection import michael_select
from convsel.specio.cli import main
from convsel.specio.loader import load_spec
from reference.fields_pointwise import continuity_modulus_edges

FIXTURES = sorted(path.stem for path in SPECS.glob("*.json"))


def full_ratios(f, domain, per_axis, halvings):
    """The ratios from every grid evaluated whole, as the oracle, up to the
    first halving that adds no point."""
    grids = [Grid(domain, per_axis)]
    for k in range(1, halvings + 1):
        fine = Grid(domain, (per_axis - 1) * 2**k + 1)
        if len(fine) == len(grids[-1]):
            break
        grids.append(fine)
    mods = [continuity_modulus(f, grid) for grid in grids]
    return [
        None if coarse <= 1e-12 and fine <= 1e-12 else (fine / coarse if coarse > 0 else math.inf)
        for coarse, fine in zip(mods, mods[1:])
    ]


def wave(domain):
    """A smooth scalar field with no symmetry that would hide a misplaced row."""
    return ScalarField(domain, batch=lambda X: np.sin(X @ np.arange(1.0, X.shape[1] + 1) + 0.3))


def spiral(domain):
    return VectorField(domain, 2, batch=lambda X: np.column_stack(
        [np.cos(3.0 * X.sum(axis=1)), X[:, 0] ** 3]))


@pytest.mark.parametrize("name", FIXTURES)
def test_each_fixture_selection_matches_the_full_evaluation(name):
    spec = load_spec(str(SPECS / f"{name}.json"))
    per_axis = 17 if spec.ambient_dim == 1 else 5
    selections = [michael_select(spec.map, spec.stratification, resolution=per_axis)[0]]
    if name.startswith("s_"):
        f, g = envelopes(spec.map)
        selections.append(sandwich_select(f, g, spec.stratification, resolution=per_axis)[0])
    for h in selections:
        want = full_ratios(h, spec.domain, per_axis, 3)
        assert modulus_ratios(h, spec.domain, per_axis, halvings=3) == want
        held = h.many(Grid(spec.domain, per_axis).points)
        assert modulus_ratios(h, spec.domain, per_axis, halvings=3, values=held) == want


DOMAINS = {
    "1d-two-boxes-and-points": Domain(
        1, boxes=(((-1.0,), (0.3,)), ((0.7,), (2.1,))), points=((5.0,), (-3.0,))
    ),
    "2d-boxes-zero-width-and-points": Domain(
        2,
        boxes=(((-1.0, -0.5), (0.2, 0.9)), ((1.5, 0.1), (1.5, 0.7)), ((3.0, 3.0), (3.0, 3.0))),
        points=((4.0, 4.0), (-2.0, 3.0)),
    ),
    "2d-points-only": Domain(2, points=((0.0, 0.0), (1.0, 2.0))),
    "3d-flat-box": Domain(3, boxes=(((0.1, 0.2, 0.3), (0.7, 0.2, 1.3)),)),
}


@pytest.mark.parametrize("per_axis", [2, 5, 8, 100])
@pytest.mark.parametrize("name", DOMAINS)
def test_hand_built_domains_match_the_full_evaluation(name, per_axis):
    domain = DOMAINS[name]
    if domain.ambient_dim > 1:
        per_axis = min(per_axis, 8)  # keep the 2D and 3D grids small
    for f in (wave(domain), spiral(domain)):
        assert modulus_ratios(f, domain, per_axis, halvings=3) == full_ratios(
            f, domain, per_axis, 3)
        grid = Grid(domain, per_axis)
        fine = grid.refined()
        assert_same_bits(
            _refined_values(f, grid, fine, f.many(grid.points)), f.many(fine.points))


@pytest.mark.parametrize("per_axis", [2, 5, 6])
@pytest.mark.parametrize("name", DOMAINS)
def test_the_counted_grid_size_is_the_built_one(name, per_axis):
    domain = DOMAINS[name]
    grid = Grid(domain, per_axis)
    for halvings in range(4):
        assert grid_size(domain, per_axis, halvings) == len(grid)
        grid = grid.refined()


#: domains whose grid no halving grows: isolated points, and boxes whose
#: every axis has zero width
FIXED_GRIDS = {
    "2d-points-only": DOMAINS["2d-points-only"],
    "2d-degenerate-boxes-and-points": Domain(
        2, boxes=(((3.0, 3.0), (3.0, 3.0)), ((1.5, 0.1), (1.5, 0.1))), points=((4.0, 4.0),)
    ),
}


@pytest.mark.parametrize("halvings", [1, 3, 60])
@pytest.mark.parametrize("name", FIXED_GRIDS)
def test_refining_stops_at_a_halving_that_adds_no_point(name, halvings):
    domain = FIXED_GRIDS[name]
    seen = []
    inner = wave(domain)
    f = ScalarField(domain, batch=lambda X: (seen.append(len(X)), inner.batch(X))[1])
    built = []
    real = Grid.refined

    def refined(self):
        built.append(self.per_axis)
        return real(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Grid, "refined", refined)
        assert modulus_ratios(f, domain, 5, halvings=halvings) == []
    assert seen == [len(Grid(domain, 5))]  # the first grid only, once
    assert built == []
    assert full_ratios(f, domain, 5, halvings) == []


def test_refining_goes_on_while_a_zero_width_axis_sits_beside_a_wide_one():
    domain = DOMAINS["3d-flat-box"]
    assert len(modulus_ratios(wave(domain), domain, 5, halvings=3)) == 3


def test_only_the_new_points_are_evaluated():
    domain = DOMAINS["2d-boxes-zero-width-and-points"]
    seen = []
    inner = wave(domain)
    f = ScalarField(domain, batch=lambda X: (seen.append(X.copy()), inner.batch(X))[1])
    grid = Grid(domain, 5)
    modulus_ratios(f, domain, 5, halvings=2, values=f.many(grid.points))
    coarse, *new = seen
    assert [len(X) for X in new] == [len(Grid(domain, 9)) - len(grid),
                                     len(Grid(domain, 17)) - len(Grid(domain, 9))]
    fine = grid.refined()
    rest = np.setdiff1d(np.arange(len(fine)), grid.refined_rows())
    assert_same_bits(new[0], fine.points[rest])  # the new points, in grid order


def test_a_row_whose_bits_differ_is_evaluated(monkeypatch):
    # a wrong row map cannot leak a coarse value: every row whose
    # coordinates differ from the coarse point's is evaluated afresh
    domain = DOMAINS["1d-two-boxes-and-points"]
    f = wave(domain)
    grid = Grid(domain, 9)
    fine = grid.refined()
    monkeypatch.setattr(Grid, "refined_rows", lambda self: np.arange(len(self)))
    assert_same_bits(
        _refined_values(f, grid, fine, f.many(grid.points)), f.many(fine.points))


def test_the_first_failing_new_point_raises_what_the_full_grid_raises():
    line = Domain(1, boxes=(((-1.0,), (1.0,)),))

    def rule(X):
        bad = (X[:, 0] > 0.3) & (X[:, 0] < 0.36)
        if bad.any():
            raise EvalDomainError(f"undefined at {X[np.argmax(bad), 0]!r}")
        return X[:, 0] ** 2

    f = ScalarField(line, batch=rule)
    f.many(Grid(line, 17).points)  # no coarse point fails
    with pytest.raises(EvalDomainError) as full:
        f.many(Grid(line, 33).points)
    with pytest.raises(EvalDomainError) as reused:
        modulus_ratios(f, line, 17, halvings=1)
    assert str(reused.value) == str(full.value)


#: bounds with no short binary expansion: thirds and sevenths, or any float
bounds = st.one_of(
    st.integers(-3 * 10**6, 3 * 10**6).map(lambda k: k / 3),
    st.integers(-7 * 10**6, 7 * 10**6).map(lambda k: k / 7),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@st.composite
def domains(draw):
    n = draw(st.integers(1, 3))
    boxes = []
    for _ in range(draw(st.integers(1, 2))):
        lo = np.array([draw(bounds) for _ in range(n)])
        widths = np.array([
            0.0 if draw(st.integers(0, 3)) == 0 else 10.0 ** draw(st.floats(-12, 12))
            for _ in range(n)
        ])
        boxes.append((lo, lo + widths))
    points = [[draw(bounds) for _ in range(n)] for _ in range(draw(st.integers(0, 2)))]
    return Domain(n, boxes=tuple(boxes), points=tuple(points))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(domains(), st.integers(2, 40))
def test_drawn_refined_rows_hold_the_coarse_points_bit_for_bit(domain, per_axis):
    wide = max(sum(bool(w) for w in hi - lo) for lo, hi in domain.boxes)
    per_axis = min(per_axis, {0: 40, 1: 40, 2: 40, 3: 16}[wide])  # at most 31^3 fine points
    grid = Grid(domain, per_axis)
    fine = grid.refined()
    rows = grid.refined_rows()
    assert np.unique(rows).size == len(grid)
    assert_same_bits(fine.points[rows], grid.points)


def assert_same_modulus(vals, grid):
    """The lattice modulus is the edge modulus: the same bits, and NaN
    exactly where the edge form gives NaN."""
    with np.errstate(invalid="ignore"):  # inf - inf
        want = continuity_modulus_edges(vals, grid)
        got = continuity_modulus(vals, grid)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert_same_bits([got], [want])


def spiked(rng, shape, count):
    """Normal values of ``shape`` with ``count`` entries set to +inf, -inf
    or NaN, drawn at random: adjacent infinities of one sign make a NaN
    jump, of opposite signs an infinite one."""
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
    flat = vals.reshape(-1)
    if flat.size and count:
        flat[rng.integers(0, flat.size, count)] = rng.choice([math.inf, -math.inf, math.nan], count)
    return vals


@pytest.mark.parametrize("width", [None, 1, 2, 3, 9])
@pytest.mark.parametrize("per_axis", [1, 2, 5, 8])
@pytest.mark.parametrize("name", [*DOMAINS, *FIXED_GRIDS])
def test_the_lattice_modulus_is_the_edge_modulus(name, per_axis, width):
    grid = Grid({**DOMAINS, **FIXED_GRIDS}[name], per_axis)
    shape = (len(grid),) if width is None else (len(grid), width)
    rng = np.random.default_rng([per_axis, width or 0, len(name)])
    for count in (0, 0, 1, 1, 2, 3, 5, 8):
        assert_same_modulus(spiked(rng, shape, count), grid)
    n = len(grid)
    for i in range(n):  # one infinity or NaN at each point: a box's or an isolated one
        for bad in (math.inf, -math.inf, math.nan):
            vals = spiked(rng, shape, 0)
            vals[i] = bad
            assert_same_modulus(vals, grid)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(domains(), st.integers(1, 12), st.sampled_from([None, 1, 2, 3]),
       st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_drawn_lattice_moduli_are_the_edge_moduli(domain, per_axis, width, count, seed):
    grid = Grid(domain, per_axis)
    shape = (len(grid),) if width is None else (len(grid), width)
    assert_same_modulus(spiked(np.random.default_rng(seed), shape, count), grid)


@pytest.mark.parametrize("command, name, per_axis", [
    ("select-sandwich", "s_mixed", 65),
    ("select-michael", "m_poly", 9),
])
def test_only_the_audited_grids_build_edges(command, name, per_axis, monkeypatch, capsys):
    # the loader's coverage grid and the refined grids of the modulus
    # ratios are only evaluated on, so they never build their edges
    built = []
    real = Grid._build_edges

    def counted(self):
        built.append(self.per_axis)
        return real(self)

    monkeypatch.setattr(Grid, "_build_edges", counted)
    path = str(SPECS / f"{name}.json")
    load_spec(path)
    assert built == []
    assert main([command, "--spec", path, "--grid", str(per_axis)]) == 0
    assert built and set(built) == {per_axis}
