"""Differential tests: the exact active-set kernel of ``HPolytope`` against
the Dykstra / linear-programming fallback it replaces for small bodies.

The fallback is reached by building the reference body while the size
limit of the kernel is patched to zero (and, for the one case above the
limit, the kernel body while the limit is patched up).
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from convsel import geometry
from convsel.errors import InfeasibleBodyError, ProjectionError
from convsel.geometry import HPolytope

from reference import polytope_pointwise
from reference.maps_pointwise import probe_points


def build(A, b, kernel: bool) -> HPolytope:
    limit = 10**9 if kernel else 0
    with mock.patch.object(geometry, "_MAX_ACTIVE_SETS", limit):
        body = HPolytope(A, b)
    assert (body._sets is not None) == kernel
    return body


def lp_margin(A: np.ndarray, b: np.ndarray) -> float:
    """max t <= 1 with A y + t |a_i| <= b: the depth of the deepest
    point, negative when the system has no solution."""
    norms = np.linalg.norm(A, axis=1)
    keep = norms > 0
    if not keep.any():
        return 1.0 if np.all(b >= 0) else -1.0
    if np.any(b[~keep] < 0):
        return -1.0
    A, b, norms = A[keep], b[keep], norms[keep]
    m = A.shape[1]
    res = geometry.linprog(
        c=np.r_[np.zeros(m), -1.0],
        A_ub=np.column_stack([A, norms]),
        b_ub=b,
        bounds=[(None, None)] * m + [(None, 1.0)],
        method="highs",
    )
    assert res.status == 0
    return -res.fun


# small integer normals: exact degeneracies (zero, parallel and repeated
# rows) are common, and facet angles stay wide enough for Dykstra to be
# accurate to 1e-7; at angles near 0.03 rad it stops ~1e-7 short
coef = st.integers(-3, 3).map(float)


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
# the body is {1}; HiGHS's optimum 1.0000001 for sup y lies 1e-7 outside it
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
    try:
        ref_Y = slow.project_many(Z)
        ref_y0 = slow.least_norm()
    except ProjectionError:
        assume(False)  # Dykstra ran out of sweeps; nothing to compare with
    np.testing.assert_allclose(Y, ref_Y, rtol=0, atol=1e-7)
    np.testing.assert_allclose(y0, ref_y0, rtol=0, atol=1e-7)
    # the cached least-norm point is the kernel's projection of the origin
    np.testing.assert_array_equal(y0, fast.project(np.zeros(fast.dim)))


@settings(max_examples=150, deadline=None)
@given(polytopes(slack=st.floats(-2.0, 2.0)))
def test_emptiness_verdicts_agree(case):
    A, b, _ = case
    margin = lp_margin(A, b)
    assume(abs(margin) > 1e-6)  # stay clear of the tolerance boundary

    def verdict(kernel: bool) -> bool:
        try:
            build(A, b, kernel)
        except InfeasibleBodyError:
            return False
        return True

    assert verdict(True) == verdict(False) == (margin > 0)


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
    lp = geometry.linprog
    monkeypatch.setattr(geometry, "linprog", lambda *a, **k: calls.append(1) or lp(*a, **k))
    slow = HPolytope(A, b)
    assert slow._sets is None
    assert calls, "the feasibility check above the limit solves an LP"
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
    probes = probe_points(slow, 8, np.random.default_rng(0))
    assert slow.contains_many(np.array(probes), tol=1e-7).all()


def test_fallback_bounds_of_a_slab():
    # HiGHS's presolve calls max y1 over this slab infeasible; the body is
    # known nonempty, so the bound is unbounded, as on the kernel path
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
