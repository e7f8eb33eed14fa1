"""The Michael construction one point at a time: the oracle that the array
passes of ``convsel.selection`` and the body batches of
``SetValuedMap.evaluate_many`` must reproduce bit for bit.

:func:`pointwise_levels` rebuilds every level of a selection from the map
and its strata, both the one-point oracles of ``reference.maps_pointwise``,
and the construction grid, a point at a time: the least-norm
point of T(x) on the base level; on a glue level the level inside read at
each cloud point, Hausdorff's formula over that cloud coordinate by
coordinate (``tietze_pointwise``), and with e the extension at x, the
least-norm point of T(x) - e on C1, 0 elsewhere, plus e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from convsel.fields import TAG_CONTINUOUS, VectorField
from convsel.urysohn import ClosedSet
from reference.fields_pointwise import tietze_pointwise


def lift_vector(domain, dim: int, rule, name: str = "") -> VectorField:
    """The vector field of a per-point rule: its batch applies ``rule`` row
    by row, so the first row that fails raises."""

    def batch(X):
        return np.array([rule(x) for x in X], dtype=float).reshape(X.shape[0], dim)

    return VectorField(domain, dim, batch=batch, tag=TAG_CONTINUOUS, name=name)


def lns_pointwise(map_) -> Callable[[np.ndarray], np.ndarray]:
    """x -> the least-norm point of T(x), for a pointwise ``map_``."""
    return lambda x: map_.evaluate(x).least_norm()


@dataclass(frozen=True)
class PointwiseLevel:
    total: Callable[[np.ndarray], np.ndarray]
    glued: Callable[[np.ndarray], np.ndarray] | None = None
    extension: Callable[[np.ndarray], np.ndarray] | None = None


def extension_pointwise(values: np.ndarray, cloud: np.ndarray):
    """x -> the Tietze extension of each column of ``values`` from the cloud;
    constant data extend to that constant."""
    A = ClosedSet.from_cloud(cloud)
    comps = []
    for v in values.T:
        lo = float(v.min())
        if float(v.max()) - lo <= 0:
            comps.append(lambda x, lo=lo: lo)
        else:
            comps.append(tietze_pointwise(None, A, values=v))
    return lambda x: np.array([c(x) for c in comps])


def pointwise_levels(map_, strata, grid) -> list[PointwiseLevel]:
    """Every level of the selection of ``map_`` over ``strata`` built on
    ``grid``, innermost first."""
    zero = np.zeros(map_.output_dim)
    levels = [PointwiseLevel(lns_pointwise(map_))]
    for j in range(len(strata) - 2, -1, -1):
        tail, C1 = strata[j + 1:], strata[j]
        cloud = np.array([p for p in grid.points if any(r(p) for r in tail)])
        inner = levels[-1].total
        values = np.array([inner(p) for p in cloud]).reshape(-1, map_.output_dim)
        ext = extension_pointwise(values, cloud)

        levels.append(_glue_level(map_, C1, ext, zero))
    return levels


def _glue_level(map_, C1, ext, zero) -> PointwiseLevel:
    def glued_at(x, e):
        return map_.evaluate(x).translate(-e).least_norm() if C1(x) else zero

    def total(x):
        e = ext(x)
        return glued_at(x, e) + e

    return PointwiseLevel(total, lambda x: glued_at(x, ext(x)), ext)


def membership_pointwise(map_, values, points) -> tuple[float, np.ndarray | None]:
    """The largest distance from a row of ``values`` to T at the matching
    point, and the first point that attains it (None when all are 0)."""
    worst, witness = 0.0, None
    for x, y in zip(points, values):
        d = float(map_.evaluate(x).distance(y))
        if d > worst:
            worst, witness = d, x
    return worst, witness
