"""``BodyBatch.boundary_margin`` against the per-body formulas of
``reference.bodies_pointwise`` and ``reference.polytope_pointwise``, one
point at a time: an interval's ``min(y - lo, hi - y)``, a ball's
``r - |y - c|``, and a polytope's least facet slack over the normals that
do not vanish, or minus its distance outside it.

Interval and ball margins are the formulas bit for bit.  A polytope block
of k points takes its slacks from one matrix product, and its distances
from a block projection, where the formula takes one point's product and
projection: for one point per body the margin is the formula's bit for
bit (where the body has the layout of its build alone), and for a block
of several points it is within ``ULPS`` units of the value.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from convsel.geometry import (
    Ball,
    BallBatch,
    HPolytope,
    Interval,
    IntervalBatch,
    PolytopeBatch,
    StackedBatch,
    kernel_operators,
)
from reference import polytope_pointwise
from reference.bodies_pointwise import PointwiseBall, PointwiseInterval
from test_polytope_rows import ULPS, assert_matches, bits, normal_stack, same_layout


def test_interval_margins_are_the_formula_bit_for_bit():
    lo = np.array([-1.0, 0.0, -math.inf, 2.0, 0.5, -0.0, -1e300])
    hi = np.array([1.0, 0.0, 3.0, math.inf, 0.5, 0.0, 1e300])
    batch = IntervalBatch(lo, hi)
    rng = np.random.default_rng(1)
    rows = np.concatenate([np.arange(len(lo)), rng.integers(len(lo), size=9)])
    Y = rng.uniform(-4, 4, size=(len(rows), 6, 1))
    Y[:, :4, 0] = [0.0, -0.0, 0.5, 2.0]  # ends, and zeros of both signs
    got = batch.boundary_margin(rows, Y)
    assert got.shape == Y.shape[:2]
    for n, i in enumerate(rows):
        body = PointwiseInterval(lo[i], hi[i])
        want = [body.boundary_margin(y) for y in Y[n]]
        assert bits(got[n]) == bits(want)
        assert bits([batch.body(i).boundary_margin(y) for y in Y[n]]) == bits(want)
    assert Interval(1.0, 1.0).boundary_margin([1.0]) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ball_margins_are_the_formula_bit_for_bit(m):
    rng = np.random.default_rng(m)
    centers, radii = rng.standard_normal((8, m)) * 10, rng.uniform(0, 3, 8)
    radii[0] = 0.0
    batch = BallBatch(centers, radii)
    rows = rng.integers(8, size=20)
    Y = centers[rows, None] + rng.standard_normal((20, 5, m)) * 2
    Y[:, 0] = centers[rows]  # the centre
    got = batch.boundary_margin(rows, Y)
    for n, i in enumerate(rows):
        body = PointwiseBall(centers[i], radii[i])
        want = [body.boundary_margin(y) for y in Y[n]]
        assert bits(got[n]) == bits(want)
        assert bits([Ball(centers[i], radii[i]).boundary_margin(y) for y in Y[n]]) == bits(want)


def block_of_points(batch: PolytopeBatch, rng, k: int = 7) -> np.ndarray:
    """For each body, k points drawn about it (most of them outside), their
    projections (on the boundary), and points inside: midpoints of two
    projections, and of a projection and the least-norm point."""
    N, m = len(batch), batch.dim
    Z = rng.standard_normal((N, k, m)) * 3
    P = batch.project_rows(np.arange(N), Z)
    inner = 0.5 * P + 0.5 * batch.least_norm()[:, None]
    return np.concatenate([Z, P, (P + P[:, ::-1]) / 2, inner], axis=1)


@pytest.mark.parametrize("case", ["independent", "dependent", "vanishing", "past the limit"])
@pytest.mark.parametrize("seed", range(4))
def test_polytope_margins_match_the_formula(case, seed):
    rng = np.random.default_rng(1000 * seed + len(case))
    A, B = normal_stack(rng, case)
    N = A.shape[0]
    sets = kernel_operators(A)
    batch = PolytopeBatch(A, sets, B)
    Y = block_of_points(batch, rng)
    got = batch.boundary_margin(np.arange(N), Y)
    assert (got > 0).any() and (got < 0).any()
    # a block of one point per body is each body's one-point call
    alone = batch.boundary_margin(np.arange(N), Y[:, 3:4])[:, 0]
    for i in range(N):
        same = sets is None or same_layout(A, sets, i)
        own = HPolytope(A[i], B[i])  # the per-point build
        want = [polytope_pointwise.boundary_margin(own, y) for y in Y[i]]
        assert_matches(got[i], want, False)
        one = [batch.body(i).boundary_margin(y) for y in Y[i]]  # one point per call
        assert_matches(one, want, same)
        assert bits([alone[i]]) == bits([one[3]])


def test_a_vanishing_normal_is_vacuous():
    # row 1 vanishes at body 0 only: there it bounds nothing, however close
    # its offset is to zero
    A = np.array([[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, -1.0], [0.0, 1.0]]])
    B = np.array([[1.0, 1e-300, 2.0], [1.0, 0.5, 2.0]])
    batch = PolytopeBatch(A, kernel_operators(A), B)
    Y = np.array([[[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, -3.0]]])
    got = batch.boundary_margin([0, 1], Y)
    assert bits(got) == bits([[1.0, -1.0], [0.5, -2.5]])
    for i in range(2):
        want = [polytope_pointwise.boundary_margin(batch.body(i), y) for y in Y[i]]
        assert bits(got[i]) == bits(want)


def test_shared_normals_in_a_block_stay_within_ulps_of_the_formula():
    A = np.array([[0.0, -1.0], [1.0, -2.0], [-1.0, 2.0], [1.0, 1.0]])
    b = np.array([-1.0, -2.0, 2.01, 4.0])
    rng = np.random.default_rng(3)
    shift = rng.uniform(-5, 5, size=(30, 2))
    batch = PolytopeBatch(A, kernel_operators(A), np.tile(b, (30, 1))).translate(shift)
    Y = block_of_points(batch, rng)
    rows = rng.permutation(30)
    got = batch.boundary_margin(rows, Y[rows])
    for n, i in enumerate(rows):
        body = batch.body(i)
        want = np.array([polytope_pointwise.boundary_margin(body, y) for y in Y[i]])
        assert np.all(np.abs(got[n] - want) <= ULPS * np.finfo(float).eps
                      * np.maximum(1.0, np.abs(want)))
        assert bits([body.boundary_margin(y) for y in Y[i]]) == bits(want)


def test_a_stacked_batch_asks_each_part_for_its_rows():
    rng = np.random.default_rng(9)
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    polys = PolytopeBatch(A, kernel_operators(A), rng.uniform(0.5, 2.0, size=(3, 4)))
    balls = BallBatch(rng.standard_normal((4, 2)), rng.uniform(0.5, 2.0, 4))
    stacked = StackedBatch(7, 2, [(np.array([0, 2, 5]), polys), (np.array([1, 3, 4, 6]), balls)])
    rows = np.array([6, 0, 5, 1, 2, 2, 4, 3])
    Y = rng.standard_normal((len(rows), 5, 2)) * 2
    got = stacked.boundary_margin(rows, Y)
    for n, r in enumerate(rows):
        part = stacked.parts[stacked._part[r]][1]
        want = part.boundary_margin([stacked._local[r]], Y[n][None])[0]
        assert bits(got[n]) == bits(want)
        if part is balls:
            body = PointwiseBall(balls.centers[stacked._local[r]], balls.radii[stacked._local[r]])
            assert bits(got[n]) == bits([body.boundary_margin(y) for y in Y[n]])
