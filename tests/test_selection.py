import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NONZERO, ORIGIN, interval_rule, random_body, sampled_min_norm
from convsel.errors import AuditError, StratificationError
from convsel.fields import DEFAULT_SEED, Domain, Grid, VectorField
from convsel.geometry import Ball, BallBatch, Interval
from convsel.maps import (
    EVERYWHERE,
    Region,
    SetValuedMap,
    Stratification,
    constant_map,
    shift,
)
from convsel import selection
from convsel.selection import (
    boundary_decay_audit,
    extend_componentwise,
    lns_field,
    michael_select,
)
from convsel.specio import cli
from convsel.specio.cli import main

LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))
SQUARE = Domain(2, boxes=(((-1.0, -1.0), (1.0, 1.0)),))
PUNCTURED = Stratification((NONZERO, ORIGIN))
TRIVIAL = Stratification((EVERYWHERE,))


def vband_map() -> SetValuedMap:
    """T(x) = [|x|, 2] away from the origin, [0, 2] there — the archetype
    whose least-norm selection is |x| and whose glue must decay to zero
    approaching the origin."""
    return SetValuedMap(
        LINE,
        1,
        (
            (NONZERO, interval_rule(lambda X: np.abs(X[:, 0]), 2.0)),
            (ORIGIN, interval_rule(0.0, 2.0)),
        ),
        declared_lsc=True,
        name="vband",
    )


def moving_ball_map() -> SetValuedMap:
    """A ball sliding along the diagonal: the origin and the test shift
    -0.25*(1,1) project onto the same face point."""

    def rule(X):
        t = 1.0 + 0.5 * np.einsum("ij,ij->i", X, X)
        return BallBatch(np.column_stack([t, t]), np.ones(X.shape[0]))

    return SetValuedMap(
        SQUARE,
        2,
        ((EVERYWHERE, rule),),
        declared_lsc=True,
        declared_continuous=True,
        name="moving-ball",
    )


class TestLnsField:
    def test_moving_interval_clamps(self):
        m = SetValuedMap(
            LINE, 1, ((EVERYWHERE, interval_rule(lambda X: X[:, 0] - 0.5,
                                                  lambda X: X[:, 0] + 0.5)),)
        )
        h = lns_field(m)
        assert h([0.9])[0] == pytest.approx(0.4)   # interval above zero
        assert h([-0.9])[0] == pytest.approx(-0.4)  # interval below zero
        assert h([0.2])[0] == 0.0                   # zero inside

    def test_offset_ball_hits_near_face(self):
        m = constant_map(SQUARE, Ball((3.0, 4.0), 1.0))
        h = lns_field(m)
        assert h([0.0, 0.0]) == pytest.approx([2.4, 3.2], abs=1e-12)

    def test_membership_and_minimality_on_random_bodies(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            body = random_body(rng, m)
            y = body.least_norm()
            assert body.contains(y, tol=1e-8)
            best = sampled_min_norm(body, 4000, rng)
            assert float(np.linalg.norm(y)) <= best + 1e-6


class TestExtendComponentwise:
    def test_exact_on_cloud(self):
        cloud = np.array([[-0.5], [0.5]])
        fv = VectorField(LINE, 2, batch=lambda X: np.column_stack([X[:, 0], X[:, 0] ** 2]))
        ext = extend_componentwise(fv, cloud, LINE)
        assert ext([0.5]) == pytest.approx([0.5, 0.25], abs=1e-12)
        assert ext([-0.5]) == pytest.approx([-0.5, 0.25], abs=1e-12)


class TestMichaelSelect:
    def test_single_stratum_is_least_norm(self):
        m = vband_map()
        h, trace = michael_select(
            SetValuedMap(LINE, 1, m.pieces, declared_lsc=True),
            TRIVIAL,
            resolution=33,
        )
        lns = lns_field(m)
        for x in np.linspace(-1, 1, 21):
            assert h([x])[0] == lns([x])[0]
        assert len(trace.levels) == 1
        assert trace.levels[0].kind == "base"

    def test_vband_selection_is_the_distance_to_zero(self):
        h, _ = michael_select(vband_map(), PUNCTURED, resolution=33)
        for x in np.linspace(-1, 1, 41):
            assert h([x])[0] == pytest.approx(abs(x), abs=1e-9)

    def test_membership_on_grid(self):
        m = vband_map()
        h, _ = michael_select(m, PUNCTURED, resolution=33)
        for x in Grid(LINE, 129).points:
            assert m(x).contains(h(x), tol=1e-7)

    def test_glue_decays_geometrically(self):
        _, trace = michael_select(vband_map(), PUNCTURED, resolution=33)
        glued = trace.outer.glued
        mags = [float(np.linalg.norm(glued([2.0 ** -i]))) for i in range(1, 9)]
        for i in range(1, 8):
            assert mags[i] == pytest.approx(mags[i - 1] / 2.0, rel=1e-9)
        assert mags[-1] < 1e-2

    def test_decay_audit_passes(self):
        _, trace = michael_select(vband_map(), PUNCTURED, resolution=33)
        report = boundary_decay_audit(trace, Grid(LINE, 65))
        assert report.passed
        assert report.checked > 0

    def test_decay_audit_vacuous_for_single_stratum(self):
        m = constant_map(LINE, Interval(1.0, 2.0))
        _, trace = michael_select(m, TRIVIAL, resolution=9)
        report = boundary_decay_audit(trace, Grid(LINE, 65))
        assert report.passed
        assert report.checked == 0
        assert any("single stratum" in n for n in report.notes)

    def test_translation_equivariance(self):
        m = moving_ball_map()
        c = np.full(2, -0.25)
        h, _ = michael_select(m, Stratification((EVERYWHERE,)), resolution=9)
        h_shifted, _ = michael_select(
            shift(m, c), Stratification((EVERYWHERE,)), resolution=9
        )
        worst = 0.0
        for x in Grid(SQUARE, 9).points:
            worst = max(worst, float(np.max(np.abs(h_shifted(x) + c - h(x)))))
        assert worst <= 1e-9

    def test_needs_lsc_declaration(self):
        m = SetValuedMap(LINE, 1, ((EVERYWHERE, interval_rule(0, 1)),))
        with pytest.raises(AuditError, match="lower semicontinuous"):
            michael_select(m, TRIVIAL)

    def test_failed_lsc_audit_blocks_selection(self):
        pinch = SetValuedMap(
            LINE,
            1,
            (
                (NONZERO, interval_rule(0.0, 0.0)),
                (ORIGIN, interval_rule(0.0, 1.0)),
            ),
            declared_lsc=True,
        )
        with pytest.raises(AuditError, match="lsc audit failed"):
            michael_select(pinch, PUNCTURED, resolution=33)

    def test_non_partition_rejected(self):
        m = vband_map()
        with pytest.raises(StratificationError, match="stratification audit"):
            michael_select(m, Stratification((EVERYWHERE, ORIGIN)), resolution=17)

    def test_stratum_continuity_enforced(self):
        # a one-cell collapse inside the top stratum: the global audit
        # forgives it (the far cell recovers) but the per-stratum
        # continuity audit cannot reach across the masked-out origin
        pinch_point = Region("x == 0.125", batch=lambda X: X[:, 0] == 0.125)
        m = SetValuedMap(
            LINE,
            1,
            (
                (pinch_point, interval_rule(0.0, 0.0)),
                (EVERYWHERE, interval_rule(0.0, 5.0)),
            ),
            declared_lsc=True,
        )
        with pytest.raises(StratificationError, match="continuity"):
            michael_select(m, PUNCTURED, resolution=17)

    def test_trace_structure(self):
        _, trace = michael_select(vband_map(), PUNCTURED, resolution=17)
        assert trace.strata == ("x != 0", "x == 0")
        assert [lv.kind for lv in trace.levels] == ["base", "glue"]
        outer = trace.outer
        assert outer.C1 is not None
        assert outer.extension is not None


def counting(field: VectorField, calls: list) -> VectorField:
    """``field`` with the points of each batch it evaluates appended to
    ``calls``, one list per batch."""
    def batch(X):
        calls.append([tuple(x) for x in X])
        return field.batch(X)

    return VectorField(field.domain, field.dim, batch=batch, tag=field.tag, name=field.name)


def test_each_level_reads_the_partial_and_the_extension_once(monkeypatch):
    # the moving ball into R^2 over two strata; the tail, the line x1 == 0,
    # holds 9 points of the construction grid
    base, ext = [], []
    real_lns, real_extend = selection.lns_field, selection.extend_componentwise
    monkeypatch.setattr(selection, "lns_field", lambda map_: counting(real_lns(map_), base))
    monkeypatch.setattr(
        selection, "extend_componentwise",
        lambda *args, **kwargs: counting(real_extend(*args, **kwargs), ext),
    )
    h, trace = michael_select(moving_ball_map(), PUNCTURED, resolution=9)
    tail = [tuple(p) for p in trace.construction_grid.points if p[0] == 0.0]
    assert len(tail) == 9
    assert base == [tail]  # the partial is baked by one batch over the cloud
    assert ext == []
    X = np.array([[0.5, 0.25], [0.0, 0.25], [-0.5, 1.0]])  # on C1, on the tail, on C1
    h.many(X)
    assert ext == [[tuple(x) for x in X]]  # one batch of the extension per call
    ext.clear()
    h(X[0])
    assert ext == [[tuple(X[0])]]
    assert base == [tail]


def test_select_michael_builds_bodies_one_at_a_time_only_for_the_probes(
    specs_dir, monkeypatch
):
    # m_poly at --grid 9: the load-time coverage check, the hypothesis
    # audits, every level, membership and the decay audit all read body
    # batches; the sweep reads T through one evaluate_many over its 81 grid
    # points, where it made 81 one-point evaluations, and takes each body
    # out of that batch to probe it
    counts = {"evaluate": 0, "vector_call": 0, "sweep_batches": 0}
    at_load = {}
    sweep = [False]
    real_evaluate, real_many = SetValuedMap.evaluate, SetValuedMap.evaluate_many
    real_call = VectorField.__call__

    def evaluate(self, x):
        counts["evaluate"] += 1
        return real_evaluate(self, x)

    def evaluate_many(self, X):
        counts["sweep_batches"] += sweep[0]
        return real_many(self, X)

    def call(self, x):
        counts["vector_call"] += 1
        return real_call(self, x)

    def load_spec(path, real=cli.load_spec):
        spec = real(path)
        at_load.update(counts)
        return spec

    def hypothesis_audits(*args, real=selection.hypothesis_audits, **kwargs):
        sweep[0] = True
        try:
            yield from real(*args, **kwargs)
        finally:
            sweep[0] = False

    monkeypatch.setattr(SetValuedMap, "evaluate", evaluate)
    monkeypatch.setattr(SetValuedMap, "evaluate_many", evaluate_many)
    monkeypatch.setattr(VectorField, "__call__", call)
    monkeypatch.setattr(cli, "load_spec", load_spec)
    monkeypatch.setattr(selection, "hypothesis_audits", hypothesis_audits)
    assert main(["select-michael", "--spec", str(specs_dir / "m_poly.json"), "--grid", "9"]) == 0
    assert at_load == {"evaluate": 0, "vector_call": 0, "sweep_batches": 0}
    assert counts == {"evaluate": 0, "vector_call": 0, "sweep_batches": 1}


def spy_on_hypothesis_audits(monkeypatch, *modules) -> list:
    """Record the seed each call of ``hypothesis_audits``, through any of
    ``modules``, receives and the kinds of the reports it yields."""
    calls = []
    for module in modules:

        def spy(*args, real=module.hypothesis_audits, **kwargs):
            kinds = []
            calls.append((kwargs.get("seed"), kinds))
            for rep in real(*args, **kwargs):
                kinds.append(rep.kind)
                yield rep

        monkeypatch.setattr(module, "hypothesis_audits", spy)
    return calls


@pytest.mark.parametrize("seed", [None, 12345])
def test_seed_reaches_the_selection_audits(seed, monkeypatch):
    # every randomized audit (lsc and each stratum's continuity) draws its
    # probes from the streams keyed by this call's seed
    calls = spy_on_hypothesis_audits(monkeypatch, selection)
    kwargs = {} if seed is None else {"seed": seed}
    michael_select(vband_map(), PUNCTURED, resolution=17, **kwargs)
    want = DEFAULT_SEED if seed is None else seed
    assert calls == [
        (want, ["lsc", "stratification", "continuity[x != 0]", "continuity[x == 0]"])
    ]


def test_cli_seed_reaches_the_selection_audits(specs_dir, monkeypatch):
    # select-michael and verify both hand --seed to the one sweep
    calls = spy_on_hypothesis_audits(monkeypatch, cli, selection)
    for command in ("select-michael", "verify"):
        rc = main([command, "--spec", str(specs_dir / "m_vband.json"),
                   "--grid", "9", "--seed", "77"])
        assert rc == 0
    kinds = ["lsc", "stratification", "continuity[0 < abs(x1)]", "continuity[abs(x1) <= 0]"]
    assert calls == [(77, kinds)] * 2


# --- the decay audit's band edges -------------------------------------------

QUARTILES = np.linspace(0, 1, 5)


def assert_quartiles_match_numpy(a):
    a = np.asarray(a, dtype=float)
    got = selection._quantiles(a, QUARTILES)
    assert got.view(np.int64).tolist() == np.quantile(a, QUARTILES).view(np.int64).tolist()


@pytest.mark.parametrize("a", [
    [0.3],  # one point
    [-0.0],
    [0.25, 0.1],  # two points
    [0.0, -0.0],
    [0.7] * 9,  # all equal
    [0.0, -0.0, 0.0, -0.0, -0.0],
    [3.0, 1.0, 1.0, 2.0, 0.0],  # a tie on a band edge, (n - 1) q = 1
    [1.0, 1.0, 0.5, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0],
    [2.0, 1.0, 1.0, 0.0],  # ties across interpolated edges
    [1e300, 5e-324, 1e-310, 1e300, 0.0],
])
def test_band_edges_are_numpys_quantiles(a):
    assert_quartiles_match_numpy(a)


MAGNITUDES = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-17, 1.0, 3e8, 1e150, 1e300])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drawn_band_edges_are_numpys_quantiles(data):
    # cloud distances: finite, often tied, often round, of any magnitude
    n = data.draw(st.integers(1, 5000))
    palette = data.draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0]),
            st.floats(0.0, 1.0).map(lambda v: round(v, 2)),
            st.floats(-1.0, 1.0),
        ),
        min_size=1, max_size=12,
    ))
    scale = data.draw(MAGNITUDES)
    picks = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = np.asarray(palette)[picks.integers(len(palette), size=n)] * scale
    if data.draw(st.booleans()):  # spread some values between the ties
        some = picks.random(n) < 0.3
        a[some] = np.round(picks.random(int(some.sum())), 3) * data.draw(MAGNITUDES)
    assert np.isfinite(a).all()
    assert_quartiles_match_numpy(a)
