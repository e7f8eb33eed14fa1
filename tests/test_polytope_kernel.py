"""Differential tests: the exact active-set kernel of ``HPolytope`` against
the exact recursion past it (``geometry._nearest``), both against rational
arithmetic (``reference.polytope_exact``), and both against HiGHS where
scipy is installed.

The fallback is reached by building the reference body while the size
limit of the kernel is patched to zero (and, for the cases above the
limit, the kernel body while the limit is patched up).
"""

from __future__ import annotations

import importlib.util
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convsel import geometry
from convsel.errors import InfeasibleBodyError
from convsel.geometry import HPolytope

from reference import polytope_pointwise
from reference.polytope_exact import ExactPolytope
from reference.maps_pointwise import probe_points


def build(A, b, kernel: bool) -> HPolytope:
    limit = 10**9 if kernel else 0
    with mock.patch.object(geometry, "_MAX_ACTIVE_SETS", limit):
        body = HPolytope(A, b)
    assert (body._sets is not None) == kernel
    return body


HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def highs():
    """scipy's ``linprog``, the independent oracle; skips without scipy."""
    return pytest.importorskip("scipy.optimize").linprog


def lp_margin(A: np.ndarray, b: np.ndarray) -> float:
    """max t <= 1 with A y + t |a_i| <= b: the depth of the deepest
    point, negative when the system has no solution, by HiGHS."""
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 0
    if not keep.any():
        return 1.0 if np.all(b >= 0) else -1.0
    if np.any(b[~keep] < 0):
        return -1.0
    A, b, norms = A[keep], b[keep], norms[keep]
    m = A.shape[1]
    res = highs()(
        c=np.r_[np.zeros(m), -1.0],
        A_ub=np.column_stack([A, norms]),
        b_ub=b,
        bounds=[(None, None)] * m + [(None, 1.0)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


# small integer normals make exact degeneracies (zero, parallel and
# repeated rows) common; normals in steps of 0.01 make facets meet at small
# angles
coef = st.one_of(st.integers(-3, 3).map(float), st.integers(-300, 300).map(lambda k: k / 100))


@st.composite
def polytopes(draw, slack=st.floats(0.0, 2.0)):
    """(A, b, points): at most 6 rows in R^m for m in {1, 2, 3}, through a
    drawn point x0 (nonempty when every slack is >= 0), optionally capped
    by the simplex rows -y_j <= .. and sum y <= .. so that it is bounded,
    and a few query points."""
    m = draw(st.integers(1, 3))
    x0 = np.array(draw(st.lists(st.floats(-3, 3), min_size=m, max_size=m)))
    rows = []
    if draw(st.booleans()):
        rows += [-np.eye(m)[j] for j in range(m)] + [np.ones(m)]
    extra = draw(st.integers(0 if rows else 1, 6 - len(rows)))
    rows += [np.array(draw(st.lists(coef, min_size=m, max_size=m))) for _ in range(extra)]
    A = np.array(rows)
    s = np.array(draw(st.lists(slack, min_size=len(rows), max_size=len(rows))))
    b = A @ x0 + s
    k = draw(st.integers(1, 4))
    Z = np.array(
        draw(st.lists(st.lists(st.floats(-6, 6), min_size=m, max_size=m),
                      min_size=k, max_size=k))
    )
    return A, b, Z


def assert_extremes_attained(body: HPolytope, lo, hi, tol: float):
    lo_x, hi_x, arg_lo, arg_hi = body.coord_extremes()
    np.testing.assert_array_equal(lo_x, lo)
    np.testing.assert_array_equal(hi_x, hi)
    for j in range(body.dim):
        for bound, arg in ((lo[j], arg_lo[j]), (hi[j], arg_hi[j])):
            if math.isfinite(bound):
                assert body.contains(arg, tol=tol)
                assert arg[j] == pytest.approx(bound, abs=tol)
            else:
                assert np.isnan(arg).all()


@settings(max_examples=150, deadline=None)
@given(polytopes())
# the body is {1}, with a row 1e-7 looser than the tight one
@example((np.array([[-1.0], [1.0], [1.0]]), np.array([-1.0, 1.0000001, 1.0]),
          np.array([[0.0]])))
def test_kernel_matches_fallback(case):
    A, b, Z = case
    fast = build(A, b, kernel=True)
    slow = build(A, b, kernel=False)

    lo, hi = fast.coord_bounds()
    ref_lo, ref_hi = slow.coord_bounds()
    for got, want in ((lo, ref_lo), (hi, ref_hi)):
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_array_equal(got[~finite], want[~finite])
        np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=1e-7)
    assert_extremes_attained(fast, lo, hi, tol=1e-9)
    assert_extremes_attained(slow, ref_lo, ref_hi, tol=1e-7)

    Y = fast.project_many(Z)
    assert fast.contains_many(Y).all()
    y0 = fast.least_norm()
    assert fast.contains(y0)
    ref_Y = slow.project_many(Z)
    ref_y0 = slow.least_norm()
    np.testing.assert_allclose(Y, ref_Y, rtol=0, atol=1e-7)
    np.testing.assert_allclose(y0, ref_y0, rtol=0, atol=1e-7)
    # the cached least-norm point is the kernel's projection of the origin
    np.testing.assert_array_equal(y0, fast.project(np.zeros(fast.dim)))


@settings(max_examples=150, deadline=None)
@given(polytopes(slack=st.floats(-2.0, 2.0)))
def test_emptiness_verdicts_agree(case):
    A, b, _ = case
    norms = np.linalg.norm(A, axis=1)

    def verdict(b, kernel: bool) -> bool:
        try:
            build(A, b, kernel)
        except InfeasibleBodyError:
            return False
        return True

    nonempty = verdict(b, True)
    if verdict(b, False) != nonempty:
        # the kernel takes a candidate within 1e-9 of the rows (near the origin), the
        # recursion an excess past 1e-12 as a violation, so they may part only at the
        # boundary: loosened by 1e-6 both find the body, tightened neither
        loose, tight = b + 1e-6 * norms, b - 1e-6 * norms
        assert verdict(loose, True) and verdict(loose, False)
        assert not verdict(tight, True) and not verdict(tight, False)
    if HAVE_SCIPY:
        margin = lp_margin(A, b)
        if abs(margin) > 1e-6:  # clear of the tolerance boundary
            assert nonempty == (margin > 0)


def test_fallback_above_the_size_limit(monkeypatch):
    # a box cut by 8 random planes: 14 rows in R^3 give 1 + 14 + 91 + 364
    # candidate sets, above the kernel's limit
    rng = np.random.default_rng(5)
    normals = rng.normal(size=(8, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    A = np.vstack([np.eye(3), -np.eye(3), normals])
    b = np.concatenate([np.full(6, 2.0), np.full(8, 1.5)])
    assert geometry._active_set_count(*A.shape) >= geometry._MAX_ACTIVE_SETS

    calls = []
    real = geometry._nearest
    monkeypatch.setattr(geometry, "_nearest", lambda *a: calls.append(1) or real(*a))
    slow = HPolytope(A, b)
    assert slow._sets is None
    assert calls, "the feasibility check above the limit runs the recursion"
    with mock.patch.object(geometry, "_MAX_ACTIVE_SETS", 10**9):
        fast = HPolytope(A, b)
    assert fast._sets is not None

    Z = rng.normal(scale=4.0, size=(20, 3))
    np.testing.assert_allclose(fast.project_many(Z), slow.project_many(Z), atol=1e-7)
    np.testing.assert_allclose(fast.least_norm(), slow.least_norm(), atol=1e-7)
    for got, want in zip(fast.coord_bounds(), slow.coord_bounds()):
        np.testing.assert_allclose(got, want, atol=1e-7)
    lo, hi = slow.coord_bounds()
    assert_extremes_attained(slow, lo, hi, tol=1e-7)
    probes = probe_points(slow, 8, 0)
    assert slow.contains_many(np.array(probes), tol=1e-7).all()


def test_fallback_bounds_of_a_slab():
    # every coordinate is unbounded both ways on this slab in R^3, which a
    # presolving LP solver can call infeasible
    A = [[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]]
    b = [0.0, 1.0]
    for kernel in (True, False):
        lo, hi = build(A, b, kernel).coord_bounds()
        assert (lo == -math.inf).all() and (hi == math.inf).all()


def test_translate_shares_the_kernel():
    body = build([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [-1.0, -1.0, 4.0], kernel=True)
    moved = body.translate([1.0, -1.0])
    assert moved._sets is body._sets
    assert moved.least_norm() == pytest.approx([2.0, 0.0], abs=1e-12)
    lo, hi = moved.coord_bounds()
    assert lo == pytest.approx([2.0, 0.0]) and hi == pytest.approx([4.0, 2.0])


@pytest.mark.parametrize("m,p", [(1, 2), (2, 3), (2, 5), (3, 4), (3, 6), (2, 9)])
def test_the_kernel_matches_its_per_body_reference(m, p):
    # an HPolytope is a PolytopeBatch of one row, and a batch stacks the
    # kernel's products over its rows: both must give, bit for bit, what
    # the kernel gives one body at a time
    rng = np.random.default_rng(1000 * m + p)
    for _ in range(8):
        A = rng.integers(-3, 4, size=(p, m)).astype(float)
        if rng.random() < 0.5:
            A = rng.standard_normal((p, m))
        A = A[np.linalg.norm(A, axis=1) > 0]
        B = rng.standard_normal((12, m)) @ A.T + np.where(
            rng.random((12, A.shape[0])) < 0.3, 0.0, rng.random((12, A.shape[0])))
        sets = geometry.kernel_operators(A)
        Z = rng.standard_normal((12, 9, m)) * 3
        batch = geometry.PolytopeBatch(A, sets, B)
        got_rows = batch.project_rows(np.arange(12), Z)
        got_least, got_extremes = batch.least_norm(), batch.coord_extremes()
        for i, b in enumerate(B):
            body = HPolytope(A, b, _sets=sets)
            want = polytope_pointwise.project(A, b, sets, Z[i])
            if want is not None:
                assert_same_bits(body.project_many(Z[i]), want)
                assert_same_bits(got_rows[i], want)
            want = polytope_pointwise.least_norm(A, b, sets)
            if want is not None:
                assert_same_bits(body.least_norm(), want)
                assert_same_bits(got_least[i], want)
                want = polytope_pointwise.coord_extremes(A, b, sets)
                for got, own, part in zip(got_extremes, body.coord_extremes(), want):
                    assert_same_bits(own, part)
                    assert_same_bits(got[i], part)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# -- the fallback on the bodies that broke its predecessor -------------------


def test_the_fallback_is_exact_where_facets_meet_at_a_small_angle():
    # facets at 0.036 rad: the old iteration stopped 1e-7 short of (0, -1)
    body = build([[0.01, 0.28], [0.0, 0.01]], [-0.28, -0.01], kernel=False)
    np.testing.assert_allclose(body.least_norm(), [0.0, -1.0], rtol=0, atol=1e-12)


def test_the_fallback_is_exact_on_a_body_with_zero_rows():
    # the old iteration stopped 1e-5 short (--hypothesis-seed=24)
    A = [[0, 0, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0], [-1, 0, 0]]
    body = build(A, [0, 0, 0, 0, 1e-5], kernel=False)
    np.testing.assert_allclose(body.project([0.0, 1.0, 0.0]), np.zeros(3), rtol=0, atol=1e-12)


def test_the_fallback_finds_a_one_point_body_nonempty():
    # the origin is the only member; the feasibility LP called the body
    # empty (--hypothesis-seed=28)
    A = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1], [-2, 0, 0]]
    body = build(A, [1e-7, 0, 0, 0, 0], kernel=False)
    np.testing.assert_allclose(body.least_norm(), np.zeros(3), rtol=0, atol=1e-12)
    for part in body.coord_extremes():
        np.testing.assert_allclose(part, np.zeros_like(part), rtol=0, atol=1e-12)


def test_a_thin_wedge_past_the_kernel_is_nonempty():
    # facets 1e-7 rad apart meet at (-1e6, 0): a row this far off the
    # other's normal must not be taken for one in its span, by the kernel
    # (which keeps the pair) or by the recursion
    A, b = [[0.0, 1.0], [1e-7, -1.0]], [0.0, -0.1]
    for kernel in (True, False):
        body = build(A, b, kernel)
        # the apex is ill-conditioned by 1e7: it comes out within 1e-8 of its size
        apex = [-1e6, 0.0]
        np.testing.assert_allclose(body.least_norm(), apex, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(body.project([5e6, 3.0]), apex, rtol=1e-8, atol=1e-12)
        lo, hi = body.coord_bounds()
        # the wedge runs off to y_0 -> -inf, where y_1 >= 0.1 + 1e-7 y_0 falls
        # without bound, however slowly
        np.testing.assert_array_equal(lo, [-math.inf, -math.inf])
        np.testing.assert_allclose(hi, apex, rtol=1e-8, atol=1e-12)


def test_a_far_point_projects_onto_a_thin_wedge_past_the_kernel():
    # the same wedge with its apex at the origin, a member: the first two
    # points project onto the apex, the third onto the facet y_1 = 0
    for kernel in (True, False):
        body = build([[0.0, 1.0], [1e-7, -1.0]], [0.0, 0.0], kernel)
        np.testing.assert_array_equal(body.project_many([[5e6, 3.0], [10.0, 3.0]]),
                                      np.zeros((2, 2)))
        np.testing.assert_array_equal(body.project([-5e6, 3.0]), [-5e6, 0.0])


def test_a_row_in_the_span_does_not_slope_by_rounding():
    # rows 2 and 3 are one normal: when the direction towards y_0 -> -inf
    # is projected onto the flat of rows 3 and 1, row 2's slope along it
    # is zero, not the rounding of a direction 2e-6 long
    A = [[3.0, 0.0, 0.0], [-3.000002083992556, 3.895050898336762e-06, 6.59804612653508e-06],
         [-1.0, 2.0, -2.0], [-1.0, 2.0, -2.0], [0.0, 2.0, 1.0], [1.0, 1.0, 1.0]]
    b = [-3.6871695701971445, 4.3653421929187415, 1.5447739752866292, 1.2246011351128088,
         2.5722423907290377, 0.024434222620365764]
    lo, hi = build(A, b, kernel=False).coord_bounds()
    np.testing.assert_array_equal(lo, [-math.inf, -math.inf, -math.inf])
    np.testing.assert_allclose(hi[:2], [-1.2290565233990483, 0.6821449986059174],
                               rtol=0, atol=1e-9)
    assert hi[2] == math.inf


def test_rounding_at_an_ill_conditioned_vertex_is_not_emptiness():
    # rows 0 and 1 are 1e-6 rad from opposite: the vertex of rows 6, 1 and
    # 0 misses row 2 by 5e-10 of rounding, within what the multipliers
    # combining row 2 from them (about 1e6) leave uncertain
    A = [[1.34, -1.55, 0.78], [-1.3399998120477836, 1.549999433277573, -0.7800017716076635],
         [1.85, 2.02, 2.54], [1.36, 2.11, 0.25], [0.58, -0.04, 2.75], [1.75, 2.14, 2.09],
         [-0.17, 0.0, 0.75]]
    b = [0.20034882231376405, -0.20034480084367645, -2.5642226651845474, 3.275708705597549,
         -3.802084817996085, -1.7421445266748055, -1.8519226495340955]
    body = build(A, b, kernel=False)
    point = body.least_norm()
    lo, hi, arg_lo, arg_hi = body.coord_extremes()
    for part in (lo, hi):
        np.testing.assert_allclose(part, point, rtol=0, atol=1e-7)
    assert body.contains_many(np.concatenate([arg_lo, arg_hi])).all()


# -- the fallback on bodies larger than the kernel takes ----------------------


def large_body(p: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """p rows in R^m about the point (5, ..., 5), half of them in steps of
    0.01 and the first 2m a box, so that the body is bounded and away from
    the origin."""
    rng = np.random.default_rng(seed)
    A = np.vstack([np.eye(m), -np.eye(m), rng.normal(size=(p - 2 * m, m))])
    A[2 * m :: 2] = np.round(A[2 * m :: 2], 2)
    return A, A @ np.full(m, 5.0) + rng.uniform(0.5, 2.0, p)


@pytest.mark.parametrize("p,m", [(20, 3), (30, 4)])
def test_the_fallback_matches_the_exact_enumeration_on_large_bodies(p, m):
    A, b = large_body(p, m, seed=p)
    slow, fast = build(A, b, kernel=False), build(A, b, kernel=True)
    Z = np.random.default_rng(m).normal(5.0, 4.0, size=(12, m))
    np.testing.assert_allclose(slow.project_many(Z), fast.project_many(Z), rtol=0, atol=1e-12)
    np.testing.assert_allclose(slow.least_norm(), fast.least_norm(), rtol=0, atol=1e-12)
    for got, want in zip(slow.coord_bounds(), fast.coord_bounds()):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    lo, hi = slow.coord_bounds()
    assert_extremes_attained(slow, lo, hi, tol=1e-9)


@pytest.mark.parametrize("p,m", [(20, 3), (30, 4)])
def test_the_fallback_bounds_match_highs_on_large_bodies(p, m):
    linprog = highs()
    A, b = large_body(p, m, seed=p)
    lo, hi = build(A, b, kernel=False).coord_bounds()
    for j in range(m):
        for bound, sign in ((lo[j], 1.0), (hi[j], -1.0)):
            res = linprog(c=sign * np.eye(m)[j], A_ub=A, b_ub=b, bounds=[(None, None)] * m,
                          method="highs")
            assert res.status == 0
            assert bound == pytest.approx(sign * res.fun, abs=1e-7)


def test_a_batch_the_kernel_misses_goes_to_the_recursion_row_by_row(monkeypatch):
    # with the certificate's slack at -1e-3 the kernel rejects every candidate
    # on a body's boundary: no row of a batch away from the origin keeps a
    # member among its candidates for the origin, so every row and every
    # point goes to the recursion, which must give what the kernel gives
    A, b = large_body(20, 3, seed=7)
    B = b + np.arange(4)[:, None] * 0.25
    with mock.patch.object(geometry, "_MAX_ACTIVE_SETS", 10**9):
        sets = geometry.kernel_operators(A)
    Z = np.random.default_rng(3).normal(5.0, 4.0, size=(4, 6, 3))
    exact = geometry.PolytopeBatch(A, sets, B)
    want = (exact.project_rows(np.arange(4), Z), exact.least_norm(), *exact.coord_extremes())

    monkeypatch.setattr(geometry.PolytopeBatch, "_certify", lambda self, rows, Y, tol=None:
                        geometry._within(self.A, self.B[rows], self._norms, Y, -1e-3))
    missed = geometry.PolytopeBatch(A, sets, B)
    assert missed._lost.all()
    got = (missed.project_rows(np.arange(4), Z), missed.least_norm(), *missed.coord_extremes())
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_a_translated_batch_knows_its_fallback_rows_before_any_least_norm(monkeypatch):
    # with the same certificate as above every row of the moved batch is on
    # the fallback path, so each point of a block goes to the recursion,
    # even the points inside, which the kernel's empty active set would
    # certify: whether least_norm ran first changes nothing
    A, b = large_body(20, 3, seed=7)
    with mock.patch.object(geometry, "_MAX_ACTIVE_SETS", 10**9):
        sets = geometry.kernel_operators(A)
    monkeypatch.setattr(geometry.PolytopeBatch, "_certify", lambda self, rows, Y, tol=None:
                        geometry._within(self.A, self.B[rows], self._norms, Y, -1e-3))
    C = np.array([[0.5, -0.25, 0.1]] * 4)
    batch = geometry.PolytopeBatch(A, sets, np.tile(b, (4, 1)))
    Z = C[:, None, :] + np.random.default_rng(5).uniform(4.95, 5.05, size=(4, 6, 3))

    solved = []
    real = geometry.PolytopeBatch._solve
    monkeypatch.setattr(geometry.PolytopeBatch, "_solve",
                        lambda self, *a: solved.append(1) or real(self, *a))
    moved = batch.translate(C)
    assert moved._lost.all() and moved.take([2, 0])._lost.all()
    first = moved.project_rows(np.arange(4), Z)
    assert len(solved) == Z.shape[0] * Z.shape[1]
    again = batch.translate(C)
    again.least_norm()
    np.testing.assert_array_equal(again.project_rows(np.arange(4), Z), first)


# -- both solvers against exact rational arithmetic ----------------------------


def tilted_body(rng) -> tuple[np.ndarray, np.ndarray, float]:
    """(A, b, tilt): m + 1 to 7 rows in R^m, m <= 3, with normals on the 0.01
    lattice, about a drawn member.  In half of the bodies in R^2 and R^3 one
    row is the opposite of another tilted by ``tilt``, from 1e-9 to 1e-3
    rad, so that two facets meet at a small angle far from the origin;
    ``tilt`` is 0 in the others."""
    m = int(rng.integers(1, 4))
    p = int(rng.integers(m + 1, 8))
    A = rng.integers(-300, 301, size=(p, m)) / 100
    tilt = 0.0
    if m > 1 and rng.random() < 0.5:
        tilt = 10.0 ** rng.uniform(-9, -3)
        i, j = rng.choice(p, 2, replace=False)
        A[i] += 0.01 * (A[i] == 0).all()  # a zero row has no opposite
        u = rng.standard_normal(m)
        u -= (u @ A[i]) / (A[i] @ A[i]) * A[i]
        u *= np.linalg.norm(A[i]) / np.linalg.norm(u)
        A[j] = math.sin(tilt) * u - math.cos(tilt) * A[i]
    A = A[np.linalg.norm(A, axis=1) > 0]
    return A, A @ rng.uniform(-3, 3, m) + rng.uniform(0, 2, A.shape[0]), tilt


def bound_rtol(tilt: float) -> float | None:
    """The relative accuracy of a bound at ``tilt``, on the scale of the
    point attaining it; None below 1e-7, where vertices reach 1e8 and more
    and a bound is as ill-conditioned as its tilt is small."""
    if tilt == 0.0:
        return 1e-12
    return 1e-10 if tilt >= 1e-5 else 1e-8 if tilt >= 1e-7 else None


@pytest.mark.parametrize("seed", range(3))
def test_both_solvers_match_exact_arithmetic(seed):
    # finiteness must be exact on every draw, up to the band the solvers'
    # slack cannot resolve: a wrong infinity is the failure the old
    # normal-equation kernel made on tilted bodies
    rng = np.random.default_rng(seed)
    for _ in range(100):
        A, b, tilt = tilted_body(rng)
        exact = ExactPolytope(A, b)
        want = exact.coord_extremes()
        rtol = bound_rtol(tilt)
        for kernel in (True, False):
            body = build(A, b, kernel)
            got = body.coord_extremes()
            for side in (0, 1):
                # each finite bound is attained by a point that passes the certificate
                bound, arg = got[side], got[side + 2]
                assert np.isnan(arg[~np.isfinite(bound)]).all()
                np.testing.assert_array_equal(np.diagonal(arg)[np.isfinite(bound)],
                                              bound[np.isfinite(bound)])
                assert polytope_pointwise.certified(body.A, body.b,
                                                    arg[np.isfinite(bound)]).all()
                finite = np.isfinite(got[side])
                assert not np.any(exact.bounded[side] & ~finite)
                assert not np.any(finite & ~exact.nearly_bounded[side])
                for j in np.flatnonzero(finite & exact.bounded[side]):
                    if rtol is not None:
                        scale = max(1.0, np.linalg.norm(want[side + 2][j]))
                        assert abs(got[side][j] - want[side][j]) <= rtol * scale


def test_a_vertex_where_facets_meet_at_a_small_angle_is_accurate():
    # rows 2 and 3 meet at 5.6e-4 rad: the normal equations square that
    # conditioning, and put lo[1] 8.3e-10 of its size off the exact vertex
    A = [[-2.14, 2.02], [-1.17, 0.95], [-1.9, -1.85], [2.19, 2.13]]
    b = [1.2624315651131732, 1.4081775850834541, -5.948909634089754, 7.886880077261555]
    for kernel in (True, False):
        lo, _ = build(A, b, kernel).coord_bounds()
        assert lo[1] == pytest.approx(-434.8800106978182, rel=1e-12, abs=0)


def test_the_recursion_factors_its_tight_rows_as_the_kernel_does():
    # rows 2 and 3 are 1e-5 rad from opposite, and hi[1] is attained at a
    # vertex 1.8e7 out; factored in move-to-front order, the recursion's
    # tight rows put hi[1] 4.1e-10 of that vertex's size off the exact
    # value, ten times the kernel's error
    A = [[2.13, -2.66, 0.57], [2.44, -1.27, -0.76], [-2.25, -0.58, 0.7],
         [2.2499802513893874, 0.5800321377680047, -0.7000368472545059],
         [0.75, -1.75, 2.02], [1.09, -2.96, 0.96]]
    b = [-5.089133868040751, -3.416542433326363, 2.574145212500569,
         0.12265595382419447, -0.02708150943784937, -3.997871931928066]
    kernel, recursion = build(A, b, kernel=True), build(A, b, kernel=False)
    for got, want in zip(recursion.coord_extremes(), kernel.coord_extremes(), strict=True):
        assert_same_bits(got, want)
    assert_same_bits(recursion.least_norm(), kernel.least_norm())
    exact = ExactPolytope(A, b).coord_extremes()
    error = abs(recursion.coord_bounds()[1][1] - exact[1][1])
    assert error <= 1e-10 * np.linalg.norm(exact[3][1])


def test_a_wedge_bounded_by_a_nearly_dependent_pair():
    # y_0 <= 1e7 y_1 <= 0: e_0 lies in the cone of the two rows only with
    # multipliers of 1e7, which the kernel's dependence rule once dropped
    for kernel in (True, False):
        lo, hi = build([[0.0, 1.0], [1e-7, -1.0]], [0.0, 0.0], kernel).coord_bounds()
        np.testing.assert_array_equal(hi, [0.0, 0.0])
        np.testing.assert_array_equal(lo, [-math.inf, -math.inf])


@pytest.mark.parametrize("A,b,lo,hi", [
    # untilted: the kernel called hi[1] infinite
    ([[0.92, 0.2, -1.07], [1.97, -1.77, 1.48], [0.66, -1.65, 1.44], [-0.71, -1.41, 0.99],
      [-0.85, 0.66, -0.46]],
     [-0.9458041196932437, 7.997826174415306, -5.52410559212771, 6.128528179171476,
      -1.9081920307053553],
     None, [None, 2742.780757070938, None]),
    # rows 0 and 1 1.5e-6 rad from opposite: the kernel called four bounds
    # infinite and the recursion's membership check failed by rounding
    ([[0.88, -0.29, -0.04], [-0.8799995615613049, 0.2900012973709251, 0.04000023971208458],
      [1.56, 1.7, -1.25], [1.47, 2.13, 0.1], [1.45, -2.05, -1.73], [-0.72, -1.9, -1.74],
      [-1.74, -1.71, -0.31]],
     [1.395557958252477, 0.5900370795519541, 1.8335104422804218, 1.13446611810463,
      0.5443189767267271, 2.320287351512617, 0.988223328587357],
     [-1522955.1461503312, -24253964.42492593, -1.423713601995471],
     [289326.8506506802, 0.8633059342371304, 142336193.97645673]),
])
def test_bounds_of_bodies_the_old_kernel_called_unbounded(A, b, lo, hi):
    exact = ExactPolytope(A, b)
    want = exact.coord_extremes()
    for given, bound in zip((lo, hi), want[:2]):
        for j, v in enumerate(given or ()):
            if v is not None:
                assert bound[j] == v  # the exact bound, rounded
    rtol = 1e-12 if lo is None else bound_rtol(1.5e-6)
    for kernel in (True, False):
        for got, bound in zip(build(A, b, kernel).coord_bounds(), want[:2]):
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, bound, rtol=rtol, atol=0)


def test_a_far_point_projects_onto_the_facet_it_faces():
    # z is 9.9e6 from the body; the candidate for the facet of row 2 was
    # cancelled against z itself and lost to the vertex (6.89, 2.26)
    A = [[-1.84, -2.01], [-0.1, -1.58], [1.44, -1.18]]
    b = [-3.9277958064681755, -4.267763594816672, 7.254653824978146]
    z = np.array([14753573.844056288, 2327360.2471020683])
    for kernel in (True, False):
        y = build(A, b, kernel).project(z)
        np.testing.assert_allclose(y, [7067956.49135641, 8625296.688897802], rtol=1e-12, atol=0)
        assert np.linalg.norm(y - z) == pytest.approx(9936433.843035446, rel=1e-12)


def test_a_coordinate_unbounded_only_past_rounding_counts_as_bounded():
    # e_1 = 0.723 a_1 + 0.190 a_3 on the decimal lattice, but the rows in
    # binary need a_0 with a multiplier of -1e-19 as well: y_1 is unbounded
    # exactly, along a direction no float solve can see, and within the
    # solvers' slack it is bounded
    A = [[-1.59, -1.91, 2.81], [0.45, 1.77, 0.5], [0.01, 2.32, 1.95], [-1.71, -1.47, -1.9]]
    b = [1.1190328698807304, -1.7129588797348485, -5.4951498828979535, 9.950188040658855]
    exact = ExactPolytope(A, b)
    assert not exact.bounded[1, 1] and exact.nearly_bounded[1, 1]
    for kernel in (True, False):
        _, hi = build(A, b, kernel).coord_bounds()
        assert math.isfinite(hi[1])


def test_far_from_the_origin_the_certificate_admits_rounding_only():
    # y_0 <= 1 twice, the second copy 5e-4 looser, and a facet of slope 100
    # through the vertex (1, 1e6): the vertex of the looser copy misses the
    # tight one by 5e-4 and must not be certified, or hi moves by 100 times that
    A = [[1.0, 0.0], [-1.0, 0.01], [1.0, 0.0]]
    b = [1.0, 9999.0, 1.0005]
    for kernel in (True, False):
        _, hi = build(A, b, kernel).coord_bounds()
        np.testing.assert_allclose(hi, [1.0, 1e6], rtol=1e-12, atol=0)
