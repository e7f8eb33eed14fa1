"""A grid's directed edges and refined rows come from slicing each box's
index lattice.  They are held byte for byte (dtype, shape and values) to
the per-axis stride arithmetic they replace
(``reference.grid_strides``), on drawn domains: several boxes, axes of
zero width, isolated points alone, and 1 to 9 points per axis.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from convsel.fields import Domain, Grid
from reference.grid_strides import directed_edges_by_strides, refined_rows_by_strides


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def domains(draw):
    n = draw(st.integers(1, 3))
    coord = st.integers(-4, 4).map(float)
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        lo = np.array([draw(coord) for _ in range(n)])
        widths = np.array([draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in range(n)])
        boxes.append((lo, lo + widths))
    points = [[draw(coord) for _ in range(n)] for _ in range(draw(st.integers(not boxes, 3)))]
    return Domain(n, boxes=tuple(boxes), points=tuple(points))


@settings(max_examples=200, deadline=None)
@given(domains(), st.integers(1, 9))
def test_edges_and_refined_rows_match_the_stride_arithmetic(domain, per_axis):
    grid = Grid(domain, per_axis)
    for got, want in zip(grid.directed_edges(), directed_edges_by_strides(grid), strict=True):
        assert_same_bytes(got, want)
    assert_same_bytes(grid.refined_rows(), refined_rows_by_strides(grid))


def test_a_zero_width_axis_and_isolated_points_give_no_edges_of_their_own():
    domain = Domain(2, boxes=(([0.0, 1.0], [2.0, 1.0]),), points=((5.0, 5.0),))
    grid = Grid(domain, 3)
    edges, spacing = grid.directed_edges()
    # the box is a segment of 3 points along x1: 0 -> 1 -> 2 and back
    np.testing.assert_array_equal(edges, [[0, 1, 2], [1, 2, -1], [1, 0, -1], [2, 1, 0]])
    np.testing.assert_array_equal(spacing, [1.0] * 4)
    np.testing.assert_array_equal(grid.refined_rows(), [0, 2, 4, 5])
