"""One sweep over a map's hypotheses against the separate audit calls.

``maps.hypothesis_audits`` evaluates and probes T once per grid and
remembers every per-edge distance row, where ``lsc_audit`` and each
``continuity_audit`` used to redo both.  Its reports must equal, field
for field and bit for bit, those of the separate calls with the same
seed, and an error must come at the same report; the counts pin the work
it saves.
"""

from collections import Counter

import numpy as np
import pytest

from convsel import maps, selection
from convsel.errors import AuditError, ConvselError, UncoveredPointError
from convsel.fields import DEFAULT_SEED, Domain, Grid
from convsel.geometry import PolytopeBatch
from convsel.maps import (
    Region,
    SetValuedMap,
    Stratification,
    continuity_audit,
    hypothesis_audits,
    lsc_audit,
    stratification_audit,
)
from convsel.sandwich import sandwich_select
from convsel.specio import cli
from convsel.specio.cli import main
from convsel.specio.loader import load_spec, load_spec_dict

from conftest import NONZERO, ORIGIN, SPECS, interval_rule
from reference.maps_pointwise import load_pointwise

FIXTURES = sorted(p.stem for p in SPECS.glob("*.json"))
LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def report_bits(rep) -> tuple:
    """Every field of an audit report, floats as their bit patterns."""
    violations = tuple(
        (v.message, bits([v.deficit]),
         *(None if u is None else bits(u) for u in (v.x, v.neighbor, v.probe)))
        for v in rep.violations
    )
    eps = None if rep.eps is None else bits([rep.eps])
    return rep.kind, rep.passed, rep.checked, eps, rep.notes, violations


def collect(reports) -> list:
    """The reports in order, then the type and text of what stopped them."""
    out = []
    try:
        for rep in reports:
            out.append(report_bits(rep))
    except ConvselError as exc:
        out.append((type(exc), str(exc)))
    return out


def separate_audits(map_, strat, grid, seed):
    if map_.declared_lsc:
        yield lsc_audit(map_, grid, seed=seed)
    yield stratification_audit(strat, grid)
    for region in strat.strata:
        yield continuity_audit(map_, grid, region=region, seed=seed)


def assert_one_sweep_matches(map_, strat, grid, seed):
    want = collect(separate_audits(map_, strat, grid, seed))
    got = collect(hypothesis_audits(map_, strat, grid, seed=seed))
    assert got == want


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
@pytest.mark.parametrize("per_axis", [9, 17])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_sweep_matches_the_separate_audits(name, per_axis, seed):
    spec = load_spec(str(SPECS / f"{name}.json"))
    assert_one_sweep_matches(spec.map, spec.stratification, Grid(spec.domain, per_axis), seed)


def pinch_map(declared_lsc: bool) -> SetValuedMap:
    """[0, 0] away from the origin and [0, 5] at it: lsc fails at the
    origin, beyond the default eps, and the failing probes of T(0) differ
    from seed to seed."""
    return SetValuedMap(
        LINE, 1,
        ((NONZERO, interval_rule(0.0, 0.0)), (ORIGIN, interval_rule(0.0, 5.0))),
        declared_lsc=declared_lsc,
    )


@pytest.mark.parametrize("declared_lsc", [True, False])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_failing_and_undeclared_maps_match(declared_lsc, seed):
    # without the lsc declaration the first continuity audit draws the
    # probes; with it every audit still reports, failed or not
    strat = Stratification((NONZERO, ORIGIN))
    assert_one_sweep_matches(pinch_map(declared_lsc), strat, Grid(LINE, 17), seed)
    assert_one_sweep_matches(pinch_map(declared_lsc), Stratification((NONZERO,)),
                             Grid(LINE, 17), seed)


def test_an_evaluation_error_comes_at_the_first_map_audit():
    holed = SetValuedMap(LINE, 1, ((NONZERO, interval_rule(0.0, 1.0)),))
    grid = Grid(LINE, 9)
    got = collect(hypothesis_audits(holed, Stratification((NONZERO, ORIGIN)), grid))
    assert [entry[0] for entry in got] == ["stratification", UncoveredPointError]
    assert got == collect(separate_audits(holed, Stratification((NONZERO, ORIGIN)), grid,
                                          DEFAULT_SEED))


# an unbounded polytope with a declared box in each piece: constant
# normals (one kernel batch) left of 0, varying normals (one polytope per
# point) elsewhere; the probes sample inside the boxes
BOXED = {
    "ambient_dim": 1, "output_dim": 2,
    "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
    "strata": [["0 < abs(x1)"], ["abs(x1) <= 0"]],
    "pieces": [
        {"region": ["x1 < 0"], "body": {"hpolytope": {
            "rows": [{"normal": ["-1", "0"], "offset": "x1^2"},
                     {"normal": ["0", "-1"], "offset": "1"}],
            "bounding_box": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]}}}},
        {"region": [], "body": {"hpolytope": {
            "rows": [{"normal": ["-1", "x1"], "offset": "1"}],
            "bounding_box": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]}}}},
    ],
    "tags": {"declared_lsc": True},
}


def pointwise_probes(oracle, grid, count, seed) -> list:
    """The probes of each grid point's body, built one point at a time by
    the oracle, drawn from one seeded stream in grid order."""
    rng = np.random.default_rng(seed)
    return [maps.probe_points(oracle.evaluate(x), count, rng) for x in grid.points]


@pytest.mark.parametrize("name", ["m_poly", "m_ball", "m_two_stratum", "m_vband"])
def test_the_probes_from_one_batch_are_the_pointwise_ones(name):
    spec = load_spec(str(SPECS / f"{name}.json"))
    oracle, _ = load_pointwise(spec.raw)
    grid = Grid(spec.domain, 9 if spec.ambient_dim == 2 else 33)
    probed = maps._ProbedGrid(spec.map, grid, DEFAULT_SEED)
    want = pointwise_probes(oracle, grid, probed.probe_count, DEFAULT_SEED)
    assert bits(probed._drawn[1]) == bits(want)
    pairs = maps.graph_sample(spec.map, grid, 5, seed=7)
    want = pointwise_probes(oracle, grid, 5, 7)
    assert bits([y for _, y in pairs]) == bits([y for ys in want for y in ys])


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_a_declared_box_reaches_the_probes_as_pointwise(seed):
    # the kernel batch used to drop the box, so its bodies could not be
    # sampled and were probed by their least-norm point over and over
    spec = load_spec_dict(BOXED)
    oracle, strata = load_pointwise(BOXED)
    grid = Grid(spec.domain, 17)
    probed = maps._ProbedGrid(spec.map, grid, seed)
    assert bits(probed._drawn[1]) == bits(pointwise_probes(oracle, grid, probed.probe_count, seed))
    library_strata = Stratification(tuple(r.region() for r in strata))
    assert collect(hypothesis_audits(spec.map, spec.stratification, grid, seed=seed)) == collect(
        hypothesis_audits(oracle.library(), library_strata, grid, seed=seed))


def test_a_polytope_batch_keeps_and_shifts_its_box():
    spec = load_spec_dict(BOXED)
    X = np.array([[-0.5], [-0.25]])
    batch = spec.map.evaluate_many(X)
    assert isinstance(batch, PolytopeBatch)
    for i in range(2):
        np.testing.assert_array_equal(batch.body(i).sample_bounds(), [[-3.0, -3.0], [3.0, 3.0]])
    moved = batch.translate(np.array([[1.0, 0.5], [0.0, -1.0]]))
    np.testing.assert_array_equal(moved.body(0).bounding_box, [[-2.0, -2.5], [4.0, 3.5]])
    np.testing.assert_array_equal(moved.body(1).bounding_box, [[-3.0, -4.0], [3.0, 2.0]])


# --- the work saved -------------------------------------------------------------


@pytest.fixture
def audit_work(monkeypatch):
    """Count ``SetValuedMap.evaluate`` and ``evaluate_many`` calls and
    per-edge projections made while a ``hypothesis_audits`` sweep (through
    selection or the CLI) computes a report, and the kinds of the reports
    it yields."""
    counts = Counter(evaluate=0)  # one-point evaluations, kept in the totals when none
    inside = [False]
    real_evaluate, real_distance = SetValuedMap.evaluate, maps._distance_to
    real_many = SetValuedMap.evaluate_many

    def evaluate(self, x):
        counts["evaluate"] += inside[0]
        return real_evaluate(self, x)

    def evaluate_many(self, X):
        counts["evaluate_many"] += inside[0]
        return real_many(self, X)

    def distance_to(body, probes):
        counts["project"] += 1
        return real_distance(body, probes)

    def sweep(*args, **kwargs):
        reports = maps.hypothesis_audits(*args, **kwargs)
        while True:
            inside[0] = True
            try:
                rep = next(reports)
            except StopIteration:
                return
            finally:
                inside[0] = False
            counts[rep.kind] += 1
            yield rep

    monkeypatch.setattr(SetValuedMap, "evaluate", evaluate)
    monkeypatch.setattr(SetValuedMap, "evaluate_many", evaluate_many)
    monkeypatch.setattr(maps, "_distance_to", distance_to)
    for module in (selection, cli):
        monkeypatch.setattr(module, "hypothesis_audits", sweep)
    return counts


M_POLY_WORK = {
    "evaluate": 0, "evaluate_many": 1, "project": 288, "lsc": 1, "stratification": 1,
    "continuity[0 < x1^2 + x2^2]": 1, "continuity[x1^2 + x2^2 <= 0]": 1,
}


def test_michael_select_evaluates_and_projects_once_per_grid(audit_work):
    # one batch of 81 bodies and 288 edges at resolution 9; the separate
    # audits made 243 evaluations and 568 projections
    spec = load_spec(str(SPECS / "m_poly.json"))
    selection.michael_select(spec.map, spec.stratification, resolution=9)
    assert audit_work == M_POLY_WORK


def test_verify_evaluates_and_projects_once_per_grid(audit_work):
    assert main(["verify", "--spec", str(SPECS / "m_poly.json"), "--grid", "9"]) == 0
    assert audit_work == M_POLY_WORK


def test_a_failed_lsc_audit_is_the_only_sweep(audit_work):
    spec = load_spec(str(SPECS / "bad_lsc.json"))
    with pytest.raises(AuditError, match="lsc audit failed"):
        selection.michael_select(spec.map, spec.stratification)
    # 129 grid points, 256 directed edges and 2 far-cell confirmations
    assert audit_work == {"evaluate": 0, "evaluate_many": 1, "project": 258, "lsc": 1}


def count_masks(monkeypatch, strata) -> Counter:
    """Count ``Region.mask`` calls on the ``strata`` by region label (the
    map's piece regions may share a label with a stratum; they are not
    counted)."""
    calls = Counter()
    real = Region.mask

    def mask(self, X):
        if any(self is region for region in strata):
            calls[self.label] += 1
        return real(self, X)

    monkeypatch.setattr(Region, "mask", mask)
    return calls


def test_each_stratum_mask_is_computed_once_per_grid(monkeypatch):
    # the stratification audit and the continuity audits read one (k, N)
    # array of masks; computing them in both made 162 of the sweep's 650
    # region tests on m_poly at grid 9
    spec = load_spec(str(SPECS / "m_poly.json"))
    calls = count_masks(monkeypatch, spec.stratification.strata)
    list(hypothesis_audits(spec.map, spec.stratification, Grid(spec.domain, 9)))
    assert calls == {region.label: 1 for region in spec.stratification.strata}


def test_the_sandwich_computes_each_stratum_mask_once(monkeypatch):
    # the stratification audit, the envelopes' continuity audits and the
    # construction's U all read one array of masks on the construction grid
    spec = load_spec(str(SPECS / "s_mixed.json"))
    f, g = maps.envelopes(spec.map)
    calls = count_masks(monkeypatch, spec.stratification.strata)
    sandwich_select(f, g, spec.stratification, resolution=65)
    assert calls == {region.label: 1 for region in spec.stratification.strata}


def test_stratification_audit_masks_matches_the_audit():
    strat = Stratification((NONZERO, ORIGIN))
    for grid in (Grid(LINE, 9), Grid(LINE, 16)):
        masks = strat.masks(grid.points)
        assert masks.shape == (2, len(grid))
        assert report_bits(maps.stratification_audit_masks(masks, grid)) == report_bits(
            stratification_audit(strat, grid))
    bad = Stratification((NONZERO, Region("x <= 0", batch=lambda X: X[:, 0] <= 0.0)))
    grid = Grid(LINE, 9)
    report = maps.stratification_audit_masks(bad.masks(grid.points), grid)
    assert not report.passed
    assert report_bits(report) == report_bits(stratification_audit(bad, grid))
