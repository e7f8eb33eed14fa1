"""One sweep over a map's hypotheses against the separate audit calls.

``maps.hypothesis_audits`` evaluates and probes T once per grid and
remembers every per-edge distance row, where ``lsc_audit`` and each
``continuity_audit`` used to redo both.  Its reports must equal, field
for field and bit for bit, those of the separate calls with the same
seed, and an error must come at the same report; the counts pin the work
it saves.  The probes, their samples and the distances come from the one
body batch; they must equal, bit for bit, those drawn and projected body
by body by the oracle in ``reference.maps_pointwise``.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from convsel import geometry, maps, selection
from convsel.errors import AuditError, ConvselError, UncoveredPointError
from convsel.fields import DEFAULT_SEED, Domain, Grid
from convsel.geometry import (
    Ball,
    HPolytope,
    Interval,
    PolytopeBatch,
    StackedBatch,
    kernel_operators,
)
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
from reference import polytope_pointwise
from reference.maps_pointwise import distance_to, grid_probes, load_pointwise

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


@pytest.mark.parametrize("name", ["m_poly", "m_ball", "m_two_stratum", "m_vband"])
def test_the_probes_from_one_batch_are_the_pointwise_ones(name):
    spec = load_spec(str(SPECS / f"{name}.json"))
    oracle, _ = load_pointwise(spec.raw)
    assert_drawn_as_the_oracle(spec.map, oracle, Grid(spec.domain, 9 if spec.ambient_dim == 2 else 33))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 12345])
def test_a_declared_box_reaches_the_probes_as_pointwise(seed):
    # the kernel batch used to drop the box, so its bodies could not be
    # sampled and were probed by their least-norm point over and over
    spec = load_spec_dict(BOXED)
    oracle, strata = load_pointwise(BOXED)
    grid = Grid(spec.domain, 17)
    assert_drawn_as_the_oracle(spec.map, oracle, grid, seed)
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


def test_a_polytope_batch_body_takes_its_members_from_the_batch(monkeypatch):
    # the batch's candidates for the origin serve every body it gives out:
    # no body runs the kernel for the origin again
    spec = load_spec(str(SPECS / "m_poly.json"))
    oracle, _ = load_pointwise(spec.raw)
    grid = Grid(spec.domain, 9)
    parts = spec.map.evaluate_many(grid.points).parts
    calls = Counter()
    real = PolytopeBatch._candidates

    def candidates(self, rows, Z):
        calls[Z.shape[1:]] += 1
        return real(self, rows, Z)

    for rows, batch in parts:
        assert isinstance(batch, PolytopeBatch) and batch._origin is not None
        monkeypatch.setattr(PolytopeBatch, "_candidates", candidates)
        own = [batch.body(i) for i in range(len(batch))]
        got = [(b.least_norm(), *b.coord_extremes(), b._sets is None) for b in own]
        assert calls == {}
        monkeypatch.undo()
        for g, x in zip(got, grid.points[rows]):
            body = oracle.evaluate(x)
            for got_part, want in zip(g[:5], [body.least_norm(), *body.coord_extremes()]):
                assert bits(got_part) == bits(want)
            assert g[5] == (body._sets is None)


# --- probes, samples and distances from one batch, against the oracle ----------


def swept_pairs(grid) -> tuple[np.ndarray, np.ndarray]:
    """Every (tail, head) row that a sweep can project: each directed edge,
    then each edge's tail with its far point."""
    edges, _ = grid.directed_edges()
    far = edges[:, 2] >= 0
    return (np.concatenate([edges[:, 0], edges[far, 0]]),
            np.concatenate([edges[:, 1], edges[far, 2]]))


def assert_drawn_as_the_oracle(map_, oracle, grid, seed=DEFAULT_SEED):
    """The sweep's probes, every distance row it can ask for and
    ``graph_sample`` equal, bit for bit, those drawn and projected body by
    body on the oracle's bodies at the grid points."""
    bodies = [oracle.evaluate(x) for x in grid.points]
    probed = maps._ProbedGrid(map_, grid, seed)
    want = grid_probes(bodies, probed.probe_count, seed)
    assert bits(probed._drawn[1]) == bits(want)
    tails, heads = swept_pairs(grid)
    assert bits(probed._distances(tails, heads)) == bits(
        [distance_to(bodies[h], want[t]) for t, h in zip(tails, heads)])
    pairs = maps.graph_sample(map_, grid, 5, seed=7)
    assert bits([y for _, y in pairs]) == bits(grid_probes(bodies, 5, 7).reshape(-1, map_.output_dim))
    assert bits([x for x, _ in pairs]) == bits(np.repeat(grid.points, 5, axis=0))


def assert_spec_drawn_as_the_oracle(raw, per_axis, seed=DEFAULT_SEED):
    oracle, _ = load_pointwise(raw)
    spec = load_spec_dict(raw)
    assert_drawn_as_the_oracle(spec.map, oracle, Grid(spec.domain, per_axis), seed)


@pytest.mark.parametrize("fine", [False, True])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_probes_and_distances_match_the_oracle(name, fine):
    spec = load_spec(str(SPECS / f"{name}.json"))
    per_axis = (17 if fine else 9) if spec.ambient_dim == 2 else (65 if fine else 17)
    assert_spec_drawn_as_the_oracle(spec.raw, per_axis)


def one_piece(m: int, body: dict, **extra) -> dict:
    """A problem on [-1, 1] whose one piece is ``body``."""
    return {
        "ambient_dim": 1, "output_dim": m,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
        "strata": [[]], "pieces": [{"region": [], "body": body}], **extra,
    }


def test_infinite_interval_ends_pad_as_the_oracle():
    # half-lines and the whole line cannot be sampled: the probes repeat the
    # least-norm point, and only the bounded rows draw from the stream
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]}, "strata": [[]],
        "pieces": [
            {"region": ["x1 < -0.5"], "body": {"interval": {"lo": "-inf", "hi": "x1"}}},
            {"region": ["x1 < 0"], "body": {"interval": {"lo": "-inf", "hi": "inf"}}},
            {"region": ["x1 < 0.5"], "body": {"interval": {"lo": "x1", "hi": "1 + x1"}}},
            {"region": [], "body": {"interval": {"lo": "x1^2", "hi": "inf"}}},
        ],
    }
    assert_spec_drawn_as_the_oracle(raw, 33)


def test_an_unbounded_polytope_without_a_box_pads_as_the_oracle():
    raw = one_piece(2, {"hpolytope": {"rows": [
        {"normal": ["-1", "0"], "offset": "x1^2"},
        {"normal": ["-1", "-1"], "offset": "1 + x1"}]}})
    spec = load_spec_dict(raw)
    bodies = spec.map.evaluate_many(Grid(spec.domain, 5).points)
    assert isinstance(bodies, PolytopeBatch)
    lo, hi = bodies.sample_bounds()
    assert np.isinf(hi).all()
    assert_spec_drawn_as_the_oracle(raw, 17)


def count_fallback(monkeypatch) -> Counter:
    """Count the fallback's solves by the shape of each query point."""
    calls = Counter()
    real = geometry._nearest

    def nearest(A, b, z, w):
        calls[z.shape] += 1
        return real(A, b, z, w)

    monkeypatch.setattr(geometry, "_nearest", nearest)
    return calls


def strict_kernel(monkeypatch, batch):
    """Make the kernel of ``batch`` miss every candidate within 1e-3 of
    its body's boundary, as on an ill-conditioned body."""
    real = batch.contains
    monkeypatch.setattr(batch, "contains", lambda rows, Y, tol=None: real(rows, Y, tol=-1e-3))


def test_a_polytope_past_the_kernel_projects_edge_by_edge(monkeypatch):
    # 12 rows in R^3 have 299 candidate active sets: every row is on the
    # fallback, which projects each probe of a distance row alone
    rows = [{"normal": [str(v) for v in n], "offset": "1 + 0.25*x1"}
            for n in np.vstack([np.eye(3), -np.eye(3)])]
    rows += [{"normal": [str(v) for v in n], "offset": "1.5"}
             for n in ([1, 1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, 1], [1, -1, -1])]
    raw = one_piece(3, {"hpolytope": {"rows": rows}})
    spec = load_spec_dict(raw)
    grid = Grid(spec.domain, 5)
    assert spec.map.evaluate_many(grid.points).body(0)._sets is None
    assert_spec_drawn_as_the_oracle(raw, 5)

    probed = maps._ProbedGrid(spec.map, grid, DEFAULT_SEED)
    probed._drawn
    calls = count_fallback(monkeypatch)
    tails, heads = swept_pairs(grid)
    probed._distances(tails, heads)
    probed._distances(tails, heads)  # remembered: nothing is projected again
    assert calls == {(3,): len(tails) * probed.probe_count}


def test_each_point_the_kernel_misses_goes_to_the_fallback_alone(monkeypatch):
    # the missed points of a block go to the fallback one at a time, so a
    # row projects as its polytope's own project_many projects it
    spec = load_spec(str(SPECS / "m_poly.json"))
    oracle, _ = load_pointwise(spec.raw)
    grid = Grid(spec.domain, 9)
    probed = maps._ProbedGrid(spec.map, grid, DEFAULT_SEED)
    bodies, probes = probed._drawn
    calls = count_fallback(monkeypatch)
    for _, part in bodies.parts:
        strict_kernel(monkeypatch, part)
    tails, heads = swept_pairs(grid)
    got = probed._distances(tails, heads)
    assert 0 < calls[(2,)] < len(tails) * probed.probe_count
    assert set(calls) == {(2,)}
    own = [oracle.evaluate(x) for x in grid.points]
    for t, h, row in zip(tails, heads, got):
        strict_kernel(monkeypatch, own[h]._row)
        assert bits(row) == bits(distance_to(own[h], probes[t]))


def test_a_thin_body_restarts_the_stream_as_the_oracle(monkeypatch):
    # strips |y1 - y2| <= w(x) in a box of area about 4: at w = 1e-6 forty
    # rounds of 64 proposals fall short and the rest are projections, at
    # w = 1/64 round 1 holds about one hit of the 3 wanted
    raw = one_piece(2, {"hpolytope": {"rows": [
        {"normal": ["1", "-1"], "offset": "0.000001 + x1^2/4"},
        {"normal": ["-1", "1"], "offset": "0.000001 + x1^2/4"},
        {"normal": ["1", "0"], "offset": "1"},
        {"normal": ["-1", "0"], "offset": "1"}]}})
    rounds, topped = Counter(), Counter()
    real_round, real_project = maps._round, PolytopeBatch.project_rows

    def counted_round(bodies, rows, *args):
        rounds[len(rows) == 1] += 1
        return real_round(bodies, rows, *args)

    def project_rows(self, rows, Z):
        topped[len(rows) == 1] += 1
        return real_project(self, rows, Z)

    monkeypatch.setattr(maps, "_round", counted_round)
    monkeypatch.setattr(PolytopeBatch, "project_rows", project_rows)
    spec = load_spec_dict(raw)
    maps._ProbedGrid(spec.map, Grid(spec.domain, 9), DEFAULT_SEED)._drawn
    assert rounds[False] > 1 and rounds[True] > 39, "round 1 fell short and a body went on alone"
    assert topped[True] >= 1, "a body was topped up with projections"
    monkeypatch.undo()
    for seed in (DEFAULT_SEED, 12345):
        assert_spec_drawn_as_the_oracle(raw, 9, seed)


def test_a_stacked_batch_of_mixed_kinds_matches_the_oracle():
    # balls, a polytope batch with a box, and polytopes whose normals vary
    # (held one by one), interleaved along the grid
    raw = {
        "ambient_dim": 1, "output_dim": 2,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]}, "strata": [[]],
        "pieces": [
            {"region": ["x1^2 < 0.1"], "body": {"ball": {
                "center": ["x1", "1 - x1"], "radius": "0.5 + x1^2"}}},
            {"region": ["x1 < 0.5"], "body": {"hpolytope": {
                "rows": [{"normal": ["1", "1"], "offset": "1"},
                         {"normal": ["-1", "0"], "offset": "x1^2"}],
                "bounding_box": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]}}}},
            {"region": [], "body": {"hpolytope": {"rows": [
                {"normal": ["1", "x1"], "offset": "1"},
                {"normal": ["-1", "0"], "offset": "1"},
                {"normal": ["0", "-1"], "offset": "1 + x1"}]}}},
        ],
    }
    spec = load_spec_dict(raw)
    bodies = spec.map.evaluate_many(Grid(spec.domain, 33).points)
    assert isinstance(bodies, StackedBatch)
    assert {type(batch).__name__ for _, batch in bodies.parts} == {
        "BallBatch", "PolytopeBatch", "StackedBatch"}
    for seed in (DEFAULT_SEED, 12345):
        assert_spec_drawn_as_the_oracle(raw, 33, seed)


# polytopes whose normals vary over the plane: one part per grid point,
# bounded where x1 > 0 and sampled in the box elsewhere
VARYING_PLANE = {
    "ambient_dim": 2, "output_dim": 2,
    "domain": {"boxes": [{"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]}, "strata": [[]],
    "pieces": [{"region": [], "body": {"hpolytope": {
        "rows": [{"normal": ["1", "x1"], "offset": "1"},
                 {"normal": ["-1", "x2/2"], "offset": "1"},
                 {"normal": ["0", "-1"], "offset": "1 + x2^2"}],
        "bounding_box": {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]}}}}],
}


def test_a_stack_calls_each_part_it_touches_once(monkeypatch):
    # 1,089 one-row parts: a query of some rows calls each part that they
    # touch once, with all of that part's blocks, and the results are the
    # pointwise oracle's bit for bit
    spec = load_spec_dict(VARYING_PLANE)
    oracle, _ = load_pointwise(VARYING_PLANE)
    grid = Grid(spec.domain, 33)
    bodies = spec.map.evaluate_many(grid.points)
    N = len(grid)
    assert isinstance(bodies, StackedBatch) and len(bodies.parts) == N > 1000
    own = [oracle.evaluate(x) for x in grid.points]
    index = {id(batch): rows[0] for rows, batch in bodies.parts}
    calls = Counter()
    for name in ("project_rows", "contains", "coord_extremes", "sample_bounds"):
        def counted(self, *args, _real=getattr(PolytopeBatch, name), _name=name):
            calls[_name, index.get(id(self))] += 1
            return _real(self, *args)

        monkeypatch.setattr(PolytopeBatch, name, counted)

    def dispatched(name) -> Counter:
        got = Counter({part: n for (called, part), n in calls.items() if called == name})
        calls.clear()
        return got

    rng = np.random.default_rng(9)
    rows = rng.integers(0, N, size=1500)  # about 800 parts, many twice or more
    touched = Counter({int(i): 1 for i in rows})
    Z = rng.standard_normal((rows.size, 3, 2)) * 3
    projected = bodies.project_rows(rows, Z)
    assert dispatched("project_rows") == touched
    inside = bodies.contains(rows, projected)
    assert dispatched("contains") == touched
    extremes = bodies.coord_extremes()
    assert dispatched("coord_extremes") == Counter(range(N))
    lo, hi = bodies.sample_bounds()
    assert dispatched("sample_bounds") == Counter(range(N))
    monkeypatch.undo()

    for n, i in enumerate(rows):
        A, b = own[i].A, own[i].b
        sets = kernel_operators(A)
        want = polytope_pointwise.project(A, b, sets, Z[n])
        assert bits(projected[n]) == bits(own[i].project_many(Z[n]) if want is None else want)
        assert inside[n].tolist() == polytope_pointwise.members(A, b, projected[n]).tolist()
    boxed = 0
    for i, body in enumerate(own):
        want = polytope_pointwise.coord_extremes(body.A, body.b, kernel_operators(body.A))
        want = body.coord_extremes() if want is None else want
        for got, part in zip(extremes, want):
            assert bits(got[i]) == bits(part)
        # an unbounded body samples in its box
        bounded = np.isfinite(want[0]).all() and np.isfinite(want[1]).all()
        boxed += not bounded
        assert bits([lo[i], hi[i]]) == bits(want[:2] if bounded else [[-4.0, -4.0], [4.0, 4.0]])
    assert 0 < boxed < N


AFFINE = st.sampled_from(["0", "1", "-1", "0.5", "x1", "-x1", "x1^2", "2*x1 - 1"])
SLACK = st.sampled_from(["0", "0.000001", "0.01", "0.5", "x1^2"])


@st.composite
def drawn_bodies(draw) -> dict:
    """A ball, or a polytope around a moving point ``c(x)`` (so never
    empty), maybe unbounded, maybe thin, maybe with a box."""
    if draw(st.booleans()):
        return {"ball": {"center": [draw(AFFINE), draw(AFFINE)],
                         "radius": f"{draw(SLACK)} + {draw(SLACK)}"}}
    c = (draw(AFFINE), draw(AFFINE))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        a = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        rows.append({"normal": [str(v) for v in a],
                     "offset": f"{a[0]}*({c[0]}) + {a[1]}*({c[1]}) + {draw(SLACK)}"})
    body = {"rows": rows}
    if draw(st.booleans()):
        body["bounding_box"] = {"lo": [-4.0, -4.0], "hi": [4.0, 4.0]}
    return {"hpolytope": body}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pieces=st.lists(drawn_bodies(), min_size=1, max_size=3),
       per_axis=st.sampled_from([5, 9]), seed=st.integers(0, 2**32 - 1))
def test_drawn_maps_are_probed_as_the_oracle(pieces, per_axis, seed):
    cuts = np.linspace(-1.0, 1.0, len(pieces) + 1)[1:-1]
    raw = {
        "ambient_dim": 1, "output_dim": 2,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]}, "strata": [[]],
        "pieces": [{"region": [f"x1 < {cut}"] if i < len(cuts) else [], "body": body}
                   for i, (cut, body) in enumerate(zip([*cuts, None], pieces))],
    }
    assert_spec_drawn_as_the_oracle(raw, per_axis, seed)


# --- the work saved -------------------------------------------------------------


@pytest.fixture
def audit_work(monkeypatch):
    """Count what a ``hypothesis_audits`` sweep (through selection or the
    CLI) does while it computes a report: ``SetValuedMap.evaluate`` and
    ``evaluate_many`` calls, projected (edge, probe) rows of distances,
    bodies built one at a time and their ``project_many`` calls; and the
    kinds of the reports it yields.  Each (tail, head) row of distances
    must be projected once per grid."""
    # the one-body counts stay in the totals when they are 0
    counts = Counter(evaluate=0, bodies_built=0, project_many=0)
    inside = [False]
    real_evaluate, real_project = SetValuedMap.evaluate, maps._ProbedGrid._project
    real_many = SetValuedMap.evaluate_many
    projected = set()

    def evaluate(self, x):
        counts["evaluate"] += inside[0]
        return real_evaluate(self, x)

    def evaluate_many(self, X):
        counts["evaluate_many"] += inside[0]
        return real_many(self, X)

    def project(self, tails, heads):
        edges = set(zip(tails.tolist(), heads.tolist()))
        assert len(edges) == len(tails) and not edges & projected, "a row projected twice"
        projected.update(edges)
        counts["projected_rows"] += len(tails) * self.probe_count
        return real_project(self, tails, heads)

    for cls in (Interval, Ball, HPolytope):
        for name, key in (("__init__", "bodies_built"), ("project_many", "project_many")):
            def counted(*args, _real=getattr(cls, name), _key=key, **kwargs):
                counts[_key] += inside[0]
                return _real(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

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
    monkeypatch.setattr(maps._ProbedGrid, "_project", project)
    for module in (selection, cli):
        monkeypatch.setattr(module, "hypothesis_audits", sweep)
    return counts


M_POLY_WORK = {
    "evaluate": 0, "evaluate_many": 1, "projected_rows": 288 * 8, "bodies_built": 0,
    "project_many": 0, "lsc": 1, "stratification": 1,
    "continuity[0 < x1^2 + x2^2]": 1, "continuity[x1^2 + x2^2 <= 0]": 1,
}


def test_michael_select_evaluates_and_projects_once_per_grid(audit_work):
    # one batch of 81 bodies and 288 edges of 8 probes at resolution 9,
    # probed and projected on the batch: no polytope is built; the separate
    # audits made 243 evaluations and 568 per-edge projections
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
    # 129 grid points, 256 directed edges and 2 far-cell confirmations, of
    # 6 probes each
    assert audit_work == {"evaluate": 0, "evaluate_many": 1, "projected_rows": 258 * 6,
                          "bodies_built": 0, "project_many": 0, "lsc": 1}


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
