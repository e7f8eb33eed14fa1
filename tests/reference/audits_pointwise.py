"""The grid audits edge by edge, as written before the edge-sweep kernel:
the oracle that ``fields.confirmed_edges`` and the semicontinuity, lsc,
continuity and stratification audits must reproduce, violation for
violation and bit for bit.  Nothing here imports the audits it checks."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from convsel.fields import (
    DEFAULT_SEED, TAG_CONTINUOUS, TAG_LOWER, TAG_UPPER, Violation, default_eps,
)
from reference.maps_pointwise import distance_to, probe_points


def ref_confirmed_edges(grid, bad, mask=None):
    """``(tail, head, j, deficit)`` for each entry j of the sequence
    ``bad(tail, head, spacing)`` that is positive on a directed edge with
    both ends in ``mask``, and positive again at the far cell, at twice the
    spacing, when that is in ``mask``; edge by edge, j ascending."""
    edges, spacing = grid.directed_edges()
    out = []
    for k in range(edges.shape[0]):
        t, h, far = map(int, edges[k])
        if mask is not None and not (mask[t] and mask[h]):
            continue
        d = bad(t, h, float(spacing[k]))
        flagged = [j for j in range(len(d)) if d[j] > 0]
        if flagged and far >= 0 and (mask is None or mask[far]):
            d2 = bad(t, far, 2.0 * float(spacing[k]))
            flagged = [j for j in flagged if d2[j] > 0]
        out += [(t, h, j, d[j]) for j in flagged]
    return out


def ref_semicontinuity(values, grid, tag, eps, mask=None):
    """The semicontinuity audit of the grid ``values`` under ``tag``."""

    def jump(a, b):
        if a == b:
            return 0.0
        return a - b

    def drop(t, h, _s):
        return (jump(values[t], values[h]) - eps,)

    def rise(t, h, _s):
        return (jump(values[h], values[t]) - eps,)

    checks = []
    if tag in (TAG_LOWER, TAG_CONTINUOUS):
        checks.append(("lower", drop))
    if tag in (TAG_UPPER, TAG_CONTINUOUS):
        checks.append(("upper", rise))
    return tuple(
        Violation(
            x=tuple(grid.points[t]),
            deficit=float(d),
            neighbor=tuple(grid.points[h]),
            message=f"{label}-semicontinuity drop beyond eps",
        )
        for label, fn in checks
        for t, h, _, d in ref_confirmed_edges(grid, fn, mask=mask)
    )


class PointwiseProbes:
    """T at every point of ``grid``, body by body from the pointwise
    ``map_``; each body's probes (2m + 1 anchors, 3 samples from the stream
    of ``seed``); and each (tail, head) row of distances from the tail's
    probes to the head's body.  Each is computed once, when first read, so
    every sweep on the grid shares them."""

    def __init__(self, map_, grid, seed: int = DEFAULT_SEED):
        self.map, self.grid, self.seed = map_, grid, seed
        self._rows = {}

    @cached_property
    def drawn(self) -> tuple[list, list]:
        bodies = [self.map.evaluate(x) for x in self.grid.points]
        count = 2 * self.map.output_dim + 4
        probes = [
            np.asarray(probe_points(b, count, self.seed, row), dtype=float)
            for row, b in enumerate(bodies)
        ]
        return bodies, probes

    def distances(self, t: int, h: int) -> np.ndarray:
        if (t, h) not in self._rows:
            bodies, probes = self.drawn
            self._rows[t, h] = distance_to(bodies[h], probes[t])
        return self._rows[t, h]


def ref_lsc(probed: PointwiseProbes, eps=None, mask=None):
    """The lsc sweep edge by edge over the bodies of ``probed``, on the
    edges with both ends in ``mask``."""
    grid = probed.grid
    if eps is None:
        eps = default_eps(grid)
    pts = grid.points
    _, probes = probed.drawn
    return tuple(
        Violation(
            x=tuple(pts[t]),
            deficit=float(d),
            neighbor=tuple(pts[h]),
            probe=tuple(probes[t][j]),
            message="neighbour body stays far from a probe point",
        )
        for t, h, j, d in ref_confirmed_edges(
            grid, lambda t, h, s: probed.distances(t, h) - (eps + s), mask=mask
        )
    )


def ref_stratification(strata, grid):
    """The stratification audit point by point over pointwise ``strata``:
    each grid point in exactly one stratum and each stratum at some grid
    point, then no point with a persistent later-stratum neighbour."""
    pts = grid.points
    inside = [region.mask(pts) for region in strata]
    violations = []
    for i in range(len(grid)):
        count = sum(int(m[i]) for m in inside)
        if count != 1:
            word = "no stratum" if count == 0 else f"{count} strata"
            violations.append(
                Violation(x=tuple(pts[i]), deficit=float(abs(count - 1)),
                          message=f"grid point matches {word}")
            )
    for j, m in enumerate(inside):
        if not any(m):
            violations.append(
                Violation(x=(), deficit=1.0, message=f"stratum {j} holds no grid point")
            )
    if violations:
        return tuple(violations)
    cls = [next(j for j, m in enumerate(inside) if m[i]) for i in range(len(grid))]
    return tuple(
        Violation(
            x=tuple(pts[t]),
            deficit=float(d),
            neighbor=tuple(pts[h]),
            message=(
                f"stratum {cls[t]} point has persistent stratum-{cls[h]} "
                "neighbours (relative openness fails)"
            ),
        )
        for t, h, _, d in ref_confirmed_edges(grid, lambda t, h, _s: (cls[h] - cls[t],))
    )
