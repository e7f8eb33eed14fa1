"""Array evaluation of expressions, regions and maps against the pointwise
oracle of ``reference.maps_pointwise``.

``expr.evaluate_many`` must give the recursive evaluator's values bit for
bit at every row and raise wherever it raises at some row; a loaded
region's batch must give the oracle's mask, with the loader's
short-circuit; ``SetValuedMap.coord_bounds_many`` must give the oracle's
``evaluate(x).coord_bounds()`` at every row.  Where a batch raises, a
field searches its rows one at a time, and the first failing row names
the error, as the oracle does.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SPECS, assert_same_bits, interval_rule, random_ast
from convsel.errors import EvalDomainError, InfeasibleBodyError, UncoveredPointError
from convsel.fields import Domain, Grid, ScalarField, modulus_ratios
from convsel.geometry import Interval
from convsel.maps import EVERYWHERE, Region, SetValuedMap, envelopes, region_or
from convsel.specio import evaluate, evaluate_many, load_spec, load_spec_dict, parse_expr
from golden.capture import HOLES
from reference import maps_pointwise as pw
from reference.fields_pointwise import envelopes_pointwise

LINE = Domain(1, boxes=(((-1.0,), (1.0,)),))


def pointwise_or_error(node, X):
    """(values, None) when the oracle succeeds at every row, else (None, error)."""
    try:
        return np.array([pw.evaluate(node, x) for x in X]), None
    except EvalDomainError as exc:
        return None, exc


# values that exercise signed zeros, ties between variables, overflow and
# underflow of ``^``, the bases at which np.power and Python's pow differ,
# and NaNs whose sign and payload ``^`` must keep
_NAN_PAYLOAD = float(np.uint64(0x7FF8_0000_0000_0123).view(np.float64))
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1.01, -0.3902108345010009, 1e200, -1e-200,
            5e-324, -2.5e-310, 1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan,
            _NAN_PAYLOAD]
coordinates = st.one_of(st.sampled_from(_SPECIAL), st.floats(-4.0, 4.0))


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.lists(st.lists(coordinates, min_size=3, max_size=3), min_size=1, max_size=8),
    tie=st.booleans(),
)
def test_many_matches_evaluate_bit_for_bit(seed, rows, tie):
    rng = np.random.default_rng(seed)
    node = random_ast(rng, depth=int(rng.integers(1, 6)), n_vars=3, exponents=(-3, 7))
    X = np.array(rows, dtype=float)
    if tie:  # min / max between equal values and between zeros of either sign
        X[:, 1] = X[:, 0]
        X[:, 2] = -X[:, 0]
    values, error = pointwise_or_error(node, X)
    if error is not None:
        with pytest.raises(EvalDomainError):
            evaluate_many(node, X)
    else:
        assert_same_bits(evaluate_many(node, X), values)


@pytest.mark.parametrize("base, exponent, python", [
    # np.power gives 0.1522644953619675 and 1.030301 (numpy 2.4, x86-64)
    (-0.3902108345010009, 2, 0.15226449536196754),
    (1.01, 3, 1.0303010000000001),
])
def test_powers_take_pythons_bits(base, exponent, python):
    assert base**exponent == python
    got = evaluate_many(parse_expr(f"x1^{exponent}"), np.array([[base], [-base]]))
    assert_same_bits(got, [python, (-base) ** exponent])


@pytest.mark.parametrize("source", ["min(x1, x2)", "max(x1, x2)"])
def test_min_and_max_pick_the_operand_python_picks(source):
    # signed zeros and NaNs, where np.minimum / np.maximum may choose the other side
    X = np.array([[0.0, -0.0], [-0.0, 0.0], [math.nan, 1.0], [1.0, math.nan], [2.0, 2.0]])
    node = parse_expr(source)
    assert_same_bits(evaluate_many(node, X), [pw.evaluate(node, x) for x in X])


_EXPONENTS = list(range(-12, 13)) + [31, 50, 101]


@settings(max_examples=300, deadline=None)
@given(
    bases=st.lists(st.one_of(st.sampled_from(_SPECIAL), st.floats()), min_size=1, max_size=8),
    exponent=st.sampled_from(_EXPONENTS),
)
def test_each_power_is_pythons_float_power(bases, exponent):
    # any float, NaNs of either sign and any payload and +-inf included:
    # the bits of Python's ``float ** int``, or the error of the first row
    # where it raises
    node = parse_expr(f"x1^{exponent}")
    X = np.array(bases, dtype=float)[:, None]
    values, error = pointwise_or_error(node, X)
    if error is not None:
        with pytest.raises(EvalDomainError) as got:
            evaluate_many(node, X)
        assert str(got.value) == str(error)
    else:
        assert_same_bits(evaluate_many(node, X), values)  # compares .view(np.uint64)


@pytest.mark.parametrize("exponent", [-3, -2, -1, 0, 1, 2, 3, 31])
def test_a_nan_base_keeps_its_sign_and_payload(exponent):
    # C pow drops the sign of -nan to odd powers; Python returns the base
    X = np.array([[-math.nan], [_NAN_PAYLOAD], [math.nan]])
    node = parse_expr(f"x1^{exponent}")
    assert_same_bits(evaluate_many(node, X), [pw.evaluate(node, x) for x in X])


def test_the_array_path_does_not_call_np_power():
    # np.power differs from Python's ``float ** int`` in the last bit for
    # some bases; np.float_power is C ``pow``, as Python's is
    import inspect

    from convsel.specio import expr

    assert "np.power" not in inspect.getsource(expr._many)


_ERRORS = [
    ("1/(x1 - 0.5)", "division by zero"),
    ("sqrt(x1 - 0.75)", "sqrt of negative value"),
    ("(x1*1e200)^2", "cannot raise"),
    ("(x1 - 0.5)^-2", "cannot raise"),
    ("x2", "expression uses x2 but the point has 1 coordinates"),
]


@pytest.mark.parametrize("source, message", _ERRORS)
def test_each_domain_error_raises_and_the_field_names_the_first_failing_point(
    source, message
):
    X = np.array([[1.0], [0.5], [0.25], [-0.5]])
    node = parse_expr(source)
    with pytest.raises(EvalDomainError, match=message):
        evaluate_many(node, X)
    field = ScalarField(None, batch=lambda X: evaluate_many(node, X))
    with pytest.raises(EvalDomainError) as pointwise:
        for x in X:
            pw.evaluate(node, x)
    with pytest.raises(EvalDomainError) as batch:
        field.many(X)
    assert str(batch.value) == str(pointwise.value)
    assert message in str(batch.value)


@pytest.mark.parametrize("source, message", _ERRORS)
def test_one_row_raises_what_evaluate_raises(source, message):
    # the ``^`` errors name their base, as the oracle's do; ``evaluate``
    # is the batch of one row
    node = parse_expr(source)
    failed = 0
    for x in np.array([[1.0], [0.5], [0.25], [-0.5]]):
        try:
            pw.evaluate(node, x)
        except EvalDomainError as want:
            with pytest.raises(EvalDomainError) as got:
                evaluate_many(node, x[None])
            assert str(got.value) == str(want)
            with pytest.raises(EvalDomainError) as got:
                evaluate(node, x)
            assert str(got.value) == str(want)
            failed += 1
    assert failed


def test_sqrt_reports_the_first_failing_row_through_the_envelopes():
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [0.0], "hi": [1.0]}]},
        "pieces": [{"region": [], "body": {"interval": {"lo": "0 - sqrt(x1)", "hi": "1"}}}],
    }
    f, _ = envelopes(load_spec_dict(raw).map)
    X = np.array([[0.25], [-0.5], [-0.75]])
    with pytest.raises(EvalDomainError, match=r"^sqrt of negative value -0\.5$"):
        f.many(X)


def test_a_guarded_atom_is_not_evaluated_where_the_guard_fails():
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
        "strata": [["0 <= x1", "sqrt(x1) < 0.5"], ["x1 < 0"], ["0 <= x1", "0.5 <= sqrt(x1)"]],
        "pieces": [{"region": ["0 <= x1", "sqrt(x1) < 0.5"],
                    "body": {"interval": {"lo": "0", "hi": "1"}}},
                   {"region": [], "body": {"interval": {"lo": "-1", "hi": "1"}}}],
    }
    spec = load_spec_dict(raw)
    region = spec.stratification.strata[0]
    X = Grid(spec.domain, 65).points
    want = pw.load_pointwise(raw)[1][0].mask(X)
    assert want.any() and not want.all()
    np.testing.assert_array_equal(region.batch(X), want)  # no fallback: it does not raise
    np.testing.assert_array_equal(region.mask(X), want)


def test_a_nan_comparison_holds_as_it_does_pointwise():
    # ``a < b`` is tested as ``not (a >= b)``, so a NaN side passes the atom
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
        "pieces": [{"region": ["x1*1e308*10 - x1*1e308*10 < 0", "x1 <= 0.5"],
                    "body": {"interval": {"lo": "0", "hi": "1"}}},
                   {"region": [], "body": {"interval": {"lo": "-1", "hi": "1"}}}],
    }
    region = load_spec_dict(raw).map.pieces[0][0]
    X = np.array([[0.0], [0.25], [0.75], [-1.0]])
    want = pw.load_pointwise(raw)[0].pieces[0][0].mask(X)
    np.testing.assert_array_equal(region.batch(X), want)
    assert want.tolist() == [False, True, False, True]


def test_region_or_masks_like_any():
    left = pw.PointwiseRegion(lambda x: x[0] < 0.0, "left")
    origin = pw.PointwiseRegion(lambda x: x[0] == 0.0, "origin")
    batched = Region("left", batch=lambda X: X[:, 0] < 0.0)
    X = Grid(LINE, 17).points
    for r, ref in ((region_or(batched, origin.region()), pw.region_or(left, origin)),
                   (region_or(origin.region(), batched, EVERYWHERE),
                    pw.region_or(origin, left, pw.EVERYWHERE))):
        np.testing.assert_array_equal(r.mask(X), ref.mask(X))
        np.testing.assert_array_equal([r(x) for x in X], ref.mask(X))


def test_region_or_tests_a_member_only_where_the_earlier_ones_fail():
    seen = []
    left = Region("left", batch=lambda X: X[:, 0] < 0.0)
    spy = pw.PointwiseRegion(lambda x: seen.append(float(x[0])) or True, "spy").region()
    region_or(left, spy).mask(Grid(LINE, 5).points)
    assert seen == [0.0, 0.5, 1.0]


def assert_bounds_match(map_, oracle, X):
    lo, hi = map_.coord_bounds_many(X)
    want = [oracle.evaluate(x).coord_bounds() for x in X]
    assert lo.shape == hi.shape == (X.shape[0], map_.output_dim)
    assert_same_bits(lo, [w[0] for w in want])
    assert_same_bits(hi, [w[1] for w in want])


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
@pytest.mark.parametrize("per_axis", [9, 65])
def test_coord_bounds_many_matches_each_fixture(name, per_axis):
    spec = load_spec(str(SPECS / f"{name}.json"))
    oracle, _ = pw.load_pointwise(spec.raw)
    assert_bounds_match(spec.map, oracle, Grid(spec.domain, per_axis).points)


def test_the_fixtures_cover_every_body_kind():
    kinds = {kind for p in SPECS.glob("*.json")
             for piece in json.loads(p.read_text(encoding="utf-8"))["pieces"]
             for kind in piece["body"]}
    assert kinds == {"interval", "ball", "hpolytope"}


def test_coord_bounds_many_runs_a_plain_rule_row_by_row():
    calls = []

    def rule(x):
        calls.append(float(x[0]))
        return Interval(x[0] ** 2, 1.0 + abs(x[0]))

    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
        "pieces": [{"region": ["x1 < 0"], "body": {"interval": {"lo": "x1", "hi": "0"}}},
                   {"region": [], "body": {"interval": {"lo": "0", "hi": "1"}}}],
    }
    loaded = load_spec_dict(raw).map.pieces[0]
    map_ = SetValuedMap(LINE, 1, (loaded, (EVERYWHERE, pw.rows_rule(rule, 1))))
    oracle = pw.PointwiseMap(LINE, 1, (pw.load_pointwise(raw)[0].pieces[0], (pw.EVERYWHERE, rule)))
    X = Grid(LINE, 9).points
    assert_bounds_match(map_, oracle, X)
    assert calls[:5] == [0.0, 0.25, 0.5, 0.75, 1.0]  # only the rows the first piece leaves


def test_coord_bounds_many_raises_at_an_uncovered_point():
    right = Region("right", batch=lambda X: X[:, 0] > 0.0)
    map_ = SetValuedMap(LINE, 1, ((right, interval_rule(0.0, 1.0)),))
    X = np.array([[0.5], [-0.5], [1.0]])
    with pytest.raises(UncoveredPointError, match=r"\[-0\.5\]"):
        map_.coord_bounds_many(X)
    with pytest.raises(UncoveredPointError):
        map_.evaluate(X[1])


@pytest.mark.parametrize("body", [
    {"interval": {"lo": "1", "hi": "0"}},
    {"interval": {"lo": "inf", "hi": "inf"}},
    {"ball": {"center": ["0"], "radius": "-1"}},
])
def test_coord_bounds_many_raises_what_evaluate_raises(body):
    # a crossed interval, [inf, inf] and a negative radius, in a piece that
    # holds right of the domain [-1, 0], so the load-time check never reads
    # it: the batch rule raises the body's own error, as evaluate does
    raw = {
        "ambient_dim": 1, "output_dim": 1,
        "domain": {"boxes": [{"lo": [-1.0], "hi": [0.0]}]},
        "pieces": [{"region": ["0 < x1"], "body": body},
                   {"region": [], "body": {"interval": {"lo": "0", "hi": "1"}}}],
    }
    map_ = load_spec_dict(raw).map
    x = np.array([0.5])
    with pytest.raises(InfeasibleBodyError) as want:
        pw.load_pointwise(raw)[0].evaluate(x)
    with pytest.raises(InfeasibleBodyError) as got:
        map_.coord_bounds_many(x[None])
    assert str(got.value) == str(want.value)
    with pytest.raises(InfeasibleBodyError) as got:
        map_.evaluate(x)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(HOLES))
def test_envelopes_raise_the_pointwise_error(name):
    # at x = 1/32, row 33 of 65, each hole's floor fails
    def raised(fn, *args):
        with pytest.raises(Exception) as info:
            fn(*args)
        return type(info.value), str(info.value)

    spec = load_spec_dict(json.loads(json.dumps(HOLES[name])))
    X = Grid(spec.domain, 65).points
    oracle, _ = pw.load_pointwise(spec.raw)
    for field, ref in zip(envelopes(spec.map), envelopes_pointwise(oracle)):
        assert raised(field.many, X) == raised(ref.many, X)
        assert raised(field, X[33]) == raised(ref, X[33])


def test_modulus_ratios_take_the_values_the_caller_holds():
    spec = load_spec(str(SPECS / "s_kink.json"))
    f, _ = envelopes(spec.map)
    grid = Grid(spec.domain, 33)
    want = modulus_ratios(f, spec.domain, 33, halvings=2)
    assert modulus_ratios(f, spec.domain, 33, halvings=2, values=f.many(grid.points)) == want
