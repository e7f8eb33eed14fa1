"""One row-block rule for every batch stage.

``fields.row_blocks`` cuts a batch into consecutive row ranges whose float
counts fit a budget.  The cloud scan, the box search, the polytope
kernel's candidates, the probe rounds and the refined grids' evaluations
all take their blocks from it.  Rows are independent in every stage, so
these tests shrink the budgets until a batch falls into many blocks and
hold each stage to its one-block bits; a refined grid's evaluation is
also held to a memory peak that does not grow with the grid.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import SPECS, assert_same_bits
from convsel import fields, geometry, urysohn
from convsel.errors import EvalDomainError
from convsel.fields import Domain, Grid, ScalarField, VectorField, _refined_values, row_blocks
from convsel.geometry import PolytopeBatch, kernel_operators
from convsel.selection import lns_field
from convsel.specio.loader import load_spec
from convsel.urysohn import MEMBERSHIP_SNAP, ClosedSet


def spans(blocks) -> list:
    return [(b.start, b.stop) for b in blocks]


# --- the rule --------------------------------------------------------------


def test_zero_rows_make_no_block():
    assert row_blocks(0, 5) == []
    assert row_blocks(0, np.zeros(0, dtype=int), 10) == []


def test_a_row_over_the_budget_is_a_block_of_its_own():
    assert spans(row_blocks(1, 100, 10)) == [(0, 1)]
    assert spans(row_blocks(4, [3, 100, 4, 5], 10)) == [(0, 1), (1, 2), (2, 4)]
    assert spans(row_blocks(3, 11, 10)) == [(0, 1), (1, 2), (2, 3)]


def test_one_count_for_every_row():
    assert spans(row_blocks(10, 3, 10)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert spans(row_blocks(5, 0, 10)) == [(0, 5)]
    assert spans(row_blocks(5, 2)) == [(0, 5)]  # within FLOAT_BUDGET


def test_a_count_per_row():
    assert spans(row_blocks(6, [2, 3, 5, 1, 1, 9], 10)) == [(0, 3), (3, 5), (5, 6)]


@given(st.lists(st.integers(0, 30), max_size=40), st.integers(1, 40))
def test_blocks_tile_the_rows_greedily_within_the_budget(counts, budget):
    blocks = row_blocks(len(counts), np.array(counts, dtype=int), budget)
    cuts = [0] + [b.stop for b in blocks]
    assert [b.start for b in blocks] == cuts[:-1] and cuts[-1] == len(counts)
    for b in blocks:
        total = sum(counts[b])
        assert total <= budget or b.stop - b.start == 1
        if b.stop < len(counts):  # the next row would not fit
            assert total + counts[b.stop] > budget
    if counts:
        same = [counts[0]] * len(counts)
        assert spans(row_blocks(len(counts), counts[0], budget)) == spans(
            row_blocks(len(counts), np.array(same), budget))


# --- every stage in many blocks gives its one-block bits -------------------


CLOUDS = {
    "1d": ClosedSet(1, points=np.linspace(-1.0, 1.0, 37).reshape(-1, 1) ** 3),
    "2d": ClosedSet(2, points=np.random.default_rng(2).normal(size=(41, 2))),
    "2d-with-a-box": ClosedSet(2, boxes=(((0.2, -0.3), (0.9, 0.1)),),
                               points=np.random.default_rng(3).normal(size=(29, 2))),
}


@pytest.mark.parametrize("ranked", [False, True])
@pytest.mark.parametrize("name", CLOUDS)
@pytest.mark.parametrize("budget", [1, 7, 40])
def test_the_cloud_scan_in_blocks(monkeypatch, name, budget, ranked):
    A = CLOUDS[name]
    rng = np.random.default_rng(budget)
    X = np.vstack([rng.uniform(-2.0, 2.0, (60, A.ambient_dim)), A.points[::3]])
    rank = 1.0 + rng.random(len(A.points)) if ranked else None
    d, gap, k, least = A._scan(X, rank)
    monkeypatch.setattr(fields, "FLOAT_BUDGET", budget)
    got = A._scan(X, rank)
    assert_same_bits(got[0], d)
    assert_same_bits(got[1], gap)
    hit = gap <= MEMBERSHIP_SNAP  # k means something only there
    assert hit.any() and np.array_equal(got[2][hit], k[hit])
    if ranked:
        off = d > MEMBERSHIP_SNAP  # and the infimum only off the snap
        assert_same_bits(got[3][off], least[off])
    else:
        assert got[3] is None and least is None


@pytest.mark.parametrize("lo, hi", [((0.0,), (1.0,)), ((0.0, 0.0), (0.5, 0.25)),
                                    ((0.6, -0.5, 0.2), (1.0, -0.1, 0.2))])
@pytest.mark.parametrize("budget", [1, 300])
def test_the_box_search_in_blocks(monkeypatch, lo, hi, budget):
    lo, hi = np.array(lo), np.array(hi)
    targets = np.random.default_rng(lo.size).uniform(lo - 0.4, hi + 0.4, (9, lo.size))
    F = lambda live, L: np.sum((L - targets[live, None]) ** 2, axis=2)  # noqa: E731
    want = urysohn._nested_min(F, lo, hi, len(targets))
    monkeypatch.setattr(fields, "FLOAT_BUDGET", budget)
    assert_same_bits(urysohn._nested_min(F, lo, hi, len(targets)), want)


def polytopes(rng, N: int = 12, p: int = 4, m: int = 2):
    """Nonempty polytopes with a normal matrix per row."""
    A = rng.standard_normal((N, p, m))
    B = np.einsum("npm,nm->np", A, rng.standard_normal((N, m))) + rng.random((N, p))
    return A, B


@pytest.mark.parametrize("points_per_block", [2, 3, 6, 12, 18])
def test_the_polytope_kernel_in_blocks(monkeypatch, points_per_block):
    # six points a body: blocks of several bodies, of one body, and of
    # parts of one body's points; no part holds a single point, whose
    # products BLAS takes by another kernel (see CHANGES.md)
    rng = np.random.default_rng(points_per_block)
    A, B = polytopes(rng)
    sets = kernel_operators(A)
    rows = np.array([3, 0, 11, 5, 5, 7, 2])
    Z = rng.normal(scale=2.0, size=(rows.size, 6, 2))
    batch = PolytopeBatch(A, sets, B)
    want, least = batch.project_rows(rows, Z), batch.least_norm()
    per = sets.H.shape[-1] // 2 * (A.shape[1] + 2)  # the floats of one point's candidates
    monkeypatch.setattr(geometry, "_CANDIDATE_FLOATS", points_per_block * per)
    batch = PolytopeBatch(A, sets, B)
    assert_same_bits(batch.project_rows(rows, Z), want)
    assert_same_bits(batch.least_norm(), least)


PLANE = Domain(2, boxes=(((-1.0, -0.5), (0.7, 1.0)),), points=((3.0, 3.0),))


@pytest.mark.parametrize("budget", [1, 9, 64])
def test_refined_values_in_blocks(monkeypatch, budget):
    seen = []
    f = VectorField(PLANE, 2, batch=lambda X: (seen.append(len(X)), np.column_stack(
        [np.cos(3.0 * X.sum(axis=1)), X[:, 0] ** 3]))[1])
    grid = Grid(PLANE, 9)
    fine, vals = grid.refined(), f.many(grid.points)
    want = _refined_values(f, grid, fine, vals)
    monkeypatch.setattr(fields, "FLOAT_BUDGET", budget)
    seen.clear()
    assert_same_bits(_refined_values(f, grid, fine, vals), want)
    assert len(seen) > 1 and max(seen) == max(1, budget // 2)
    assert sum(seen) == len(fine) - len(grid)


def test_a_failing_refined_grid_raises_its_first_failing_row_across_blocks(monkeypatch):
    line = Domain(1, boxes=(((-1.0,), (1.0,)),))

    def rule(X):  # fails past 0.3 off the 17-grid, in many blocks of 3 rows
        bad = (X[:, 0] > 0.3) & (X[:, 0] * 8 % 1 != 0)
        if bad.any():
            raise EvalDomainError(f"undefined at {float(X[np.argmax(bad), 0])!r}")
        return X[:, 0] ** 2

    f = ScalarField(line, batch=rule)
    grid = Grid(line, 17)  # no coarse point fails
    with pytest.raises(EvalDomainError) as full:
        f.many(grid.refined().points)
    monkeypatch.setattr(fields, "FLOAT_BUDGET", 3)
    with pytest.raises(EvalDomainError) as blocked:
        _refined_values(f, grid, grid.refined(), f.many(grid.points))
    assert str(blocked.value) == str(full.value) == "undefined at 0.3125"


# --- memory ------------------------------------------------------------------


def test_the_modulus_report_peak_does_not_grow_with_the_refined_grid():
    # m_rotate's normals vary with x, so each row of an evaluation holds its
    # own kernel operators; the refined grids of the 51-grid hold 4.3x the
    # rows of the 25-grid's, and evaluating them whole peaked 4x higher
    spec = load_spec(str(SPECS / "m_rotate.json"))
    f = lns_field(spec.map)
    sizes, peaks = [], []
    for per_axis in (25, 51):
        sizes.append(fields.grid_size(spec.domain, per_axis, 2))
        tracemalloc.start()
        try:
            fields.modulus_ratios(f, spec.domain, per_axis, halvings=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sizes[1] >= 4 * sizes[0]
    assert peaks[1] <= 1.5 * peaks[0]
