"""A grid's directed edges and refined rows worked out from each box's
C-order strides, one axis and direction at a time: the oracle that
``Grid._build_edges`` and ``Grid.refined_rows``, which slice each box's
index lattice, must reproduce byte for byte."""

from __future__ import annotations

import numpy as np


def directed_edges_by_strides(grid) -> tuple[np.ndarray, np.ndarray]:
    """(edges, spacing) of ``grid``: edges has columns (tail, head, far),
    far being the next point past head in the same direction, or -1."""
    rows = []
    spacings = []
    for start, shape, spacing in grid._blocks:
        size = int(np.prod(shape))
        strides = np.ones(len(shape), dtype=int)
        for a in range(len(shape) - 2, -1, -1):
            strides[a] = strides[a + 1] * shape[a + 1]
        idx = np.arange(size)
        coords = np.array(np.unravel_index(idx, shape)).T
        for a, width in enumerate(shape):
            if width < 2:
                continue
            for step in (1, -1):
                ok = (coords[:, a] + step >= 0) & (coords[:, a] + step < width)
                tails = idx[ok]
                heads = tails + step * strides[a]
                far = heads + step * strides[a]
                far_ok = (coords[ok, a] + 2 * step >= 0) & (
                    coords[ok, a] + 2 * step < width
                )
                far = np.where(far_ok, far, -1 - start)
                rows.append(
                    np.column_stack([tails, heads, far]) + start
                )
                spacings.append(np.full(len(tails), spacing[a]))
    if not rows:
        return np.empty((0, 3), dtype=int), np.empty(0)
    return np.vstack(rows), np.concatenate(spacings)


def refined_rows_by_strides(grid) -> np.ndarray:
    """Each point's row in ``grid.refined()``: in a box, multi-index ``i``
    goes to ``2i`` (a zero-width axis keeps its one index 0), and an
    isolated point goes to itself."""
    rows = []
    start = 0
    for _, shape, _ in grid._blocks:
        fine = np.array([2 * w - 1 for w in shape])
        strides = np.cumprod(np.append(1, fine[:0:-1]))[::-1]
        coords = np.indices(shape).reshape(len(shape), -1)
        rows.append(start + (2 * strides) @ coords)
        start += int(np.prod(fine))
    rows.append(start + np.arange(len(grid.domain.points)))
    return np.concatenate(rows)
