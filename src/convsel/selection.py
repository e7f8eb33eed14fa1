"""Continuous selections of set-valued maps via stratified recursion.

The single-stratum case is the least-norm selection: project the origin
onto each value.  With k strata the levels are built innermost first, the
base level on the last stratum; each earlier stratum C1 glues over the
later ones, D.  A glue level bakes the level inside it once on the
construction-grid cloud of D, Tietze-extends it componentwise, and has one
array pass: with e the extension at x, the least-norm point of T(x) - e
plus e on the open top stratum, and e elsewhere.  A point is a batch of
one row.  Every level, and the hypothesis audits that come first, read T
through ``SetValuedMap.evaluate_many``, the map's one evaluator, so its
bodies are built as batches.  On D the map minus e contains
the origin, so that least-norm point vanishes there — that is the
continuity mechanism across the stratum boundary, and the decay audit
measures it directly.

Domains here are finite unions of closed boxes and points, hence always
closed — the construction relies on that, and it holds by construction,
so there is no runtime closedness flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError, StratificationError
from .fields import (
    DEFAULT_SEED,
    AuditReport,
    Domain,
    Grid,
    TAG_CONTINUOUS,
    VectorField,
    Violation,
    default_per_axis,
)
from .geometry import row_norms
from .maps import (
    Region,
    SetValuedMap,
    Stratification,
    boundary_mask,
    hypothesis_audits,
    region_or,
)
from .urysohn import ClosedSet, tietze_extend


def lns_field(map_: SetValuedMap) -> VectorField:
    """The least-norm selection x -> argmin{ |y| : y in T(x) }."""
    return VectorField(
        map_.domain,
        map_.output_dim,
        batch=lambda X: map_.evaluate_many(X).least_norm(),
        tag=TAG_CONTINUOUS,
        name=f"lns({map_.name})" if map_.name else "lns",
    )


def extend_componentwise(
    fv: VectorField, pts: np.ndarray, E: Domain, name: str = ""
) -> VectorField:
    """Tietze-extend a vector field from the finite cloud ``pts`` (shape
    (N, n)) coordinate by coordinate, reading ``fv`` once, on the whole
    cloud; values over a finite cloud are always bounded, so the plain
    bounded operator applies."""
    vals = fv.many(pts)
    cloud = ClosedSet.from_cloud(pts)
    comps = [
        tietze_extend(None, cloud, E, name=f"{name}[{i}]" if name else "", values=v)
        for i, v in enumerate(vals.T)
    ]
    return VectorField(
        E, fv.dim, batch=lambda X: np.column_stack([c.many(X) for c in comps]),
        tag=TAG_CONTINUOUS, name=name,
    )


@dataclass(frozen=True)
class MichaelLevel:
    stratum: str
    kind: str  # "base" or "glue"
    total: VectorField
    C1: Region | None = None
    extension: VectorField | None = None
    glued: VectorField | None = None  # lns of T - extension on C1, 0 on D


@dataclass(frozen=True)
class MichaelTrace:
    strata: tuple
    levels: tuple
    construction_grid: Grid

    @property
    def outer(self) -> MichaelLevel:
        return self.levels[-1]


def _glue_level(map_: SetValuedMap, C1: Region, extension) -> MichaelLevel:
    """The level of C1 over D, whose array pass reads T and the extension
    once each: with e = extension(x), the least-norm point of T(x) - e on
    C1 and 0 elsewhere is ``glued``, and ``glued + e`` the total."""
    E, m = map_.domain, map_.output_dim

    def glue(X):
        e = extension.many(X)
        glued = np.zeros_like(e)
        on = np.flatnonzero(C1.mask(X))
        if on.size:
            glued[on] = map_.evaluate_many(X[on]).translate(-e[on]).least_norm()
        return glued, e

    def field(batch, name):
        return VectorField(E, m, batch=batch, tag=TAG_CONTINUOUS, name=name)

    def total(X):
        glued, e = glue(X)
        return glued + e

    return MichaelLevel(
        C1.label, "glue", field(total, "selection"), C1, extension,
        field(lambda X: glue(X)[0], "glued"),
    )


def _build_levels(map_: SetValuedMap, strata: tuple, grid: Grid) -> list[MichaelLevel]:
    """The levels innermost first: the least-norm selection on the last
    stratum, then a glue level for each earlier stratum, whose extension
    bakes the total of the level inside it on the tail's grid cloud."""
    levels = [MichaelLevel(strata[-1].label, "base", lns_field(map_))]
    for j in range(len(strata) - 2, -1, -1):
        D = region_or(*strata[j + 1:])
        pts = grid.points[D.mask(grid.points)]
        if pts.shape[0] == 0:
            raise StratificationError(
                f"strata tail {D.label!r} holds no construction grid point"
            )
        extension = extend_componentwise(
            levels[-1].total, pts, map_.domain, name="partial-extension"
        )
        levels.append(_glue_level(map_, strata[j], extension))
    return levels


def michael_select(
    map_: SetValuedMap,
    strat: Stratification,
    resolution: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Continuous selection h with h(x) in T(x), plus its trace.

    Requires the map to be declared lower semicontinuous and its declared
    structure to survive the grid audits of :func:`hypothesis_audits`:
    lsc for the whole map, partition + relative openness for the
    stratification, and two-sided continuity of the restriction to each
    stratum.  The first failed audit raises; ``seed`` drives the audits'
    random probes.
    """
    E = map_.domain
    if resolution is None:
        resolution = default_per_axis(E.ambient_dim)
    grid = Grid(E, resolution)

    if not map_.declared_lsc:
        raise AuditError("michael_select needs a map declared lower semicontinuous")
    for rep in hypothesis_audits(map_, strat, grid, seed=seed):
        if rep.passed:
            continue
        v = rep.violations[0]
        if rep.kind == "lsc":
            raise AuditError(
                f"lsc audit failed at {v.x} (probe {v.probe}, deficit {v.deficit:.3e})",
                report=rep,
            )
        if rep.kind == "stratification":
            raise StratificationError(
                f"stratification audit failed: {v.message} at {v.x}", report=rep
            )
        label = rep.kind[len("continuity["):-1]
        raise StratificationError(
            f"map restricted to {label!r} fails its continuity "
            f"audit at {v.x} (deficit {v.deficit:.3e})",
            report=rep,
        )

    levels = _build_levels(map_, tuple(strat.strata), grid)
    trace = MichaelTrace(
        strata=tuple(r.label for r in strat.strata),
        levels=tuple(levels),
        construction_grid=grid,
    )
    return levels[-1].total, trace


def _quantiles(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(a, q)`` (method "linear") bit for bit, for a finite
    1-D ``a`` and ``q`` in [0, 1]; cloud distances are finite.

    It takes numpy's steps: the virtual index ``(n - 1) q``, the same
    partition of ``a`` (so a tie between -0.0 and 0.0 picks the same
    zero), and ``_lerp``'s rule.  ``np.quantile`` itself reaches
    ``np.unique``, which imports all of ``numpy.ma``.
    """
    n = a.shape[0]
    v = (n - 1) * q
    top = v >= n - 1
    i = np.where(top, -1, np.floor(v)).astype(np.intp)
    j = np.where(top, -1, i + 1)
    s = np.partition(a, sorted({0, -1, *i.tolist(), *j.tolist()}))
    t = v - i
    lo, hi = s[i], s[j]
    d = hi - lo
    return np.where(t >= 0.5, hi - d * (1 - t), lo + d * t)


DECAY_BANDS = 4  # quantile bands of the distance to a stratum's boundary


def boundary_decay_audit(trace: MichaelTrace, grid: Grid) -> AuditReport:
    """Check the glue's continuity mechanism on a grid.

    For each glue level, grid points of the top stratum are banded by
    distance to the stratum boundary; the per-band maximum of the
    shifted least-norm magnitude must not grow toward the boundary
    (within a small slack), which is the observable form of the decay
    that makes the zero-extension continuous.  A single-stratum trace
    has no boundary and passes vacuously.
    """
    violations = []
    notes = []
    checked = 0
    glue_levels = [lv for lv in trace.levels if lv.kind == "glue"]
    if not glue_levels:
        return AuditReport(
            kind="boundary-decay", passed=True, checked=0,
            notes=("single stratum: no boundary to decay toward",),
        )
    for lv in glue_levels:
        inside = lv.C1.mask(grid.points)
        cloud = grid.points[boundary_mask(inside, grid)]
        if cloud.shape[0] == 0:
            notes.append(f"{lv.stratum}: boundary invisible at this resolution")
            continue
        pts = grid.points[inside]
        checked += pts.shape[0]
        bset = ClosedSet.from_cloud(cloud)
        dists = bset.dist_many(pts)
        mags = row_norms(lv.glued.many(pts))
        vmax = float(mags.max(initial=0.0))
        slack = 1e-9 + 0.05 * vmax
        edges_q = _quantiles(dists, np.linspace(0, 1, DECAY_BANDS + 1))
        band_max = []
        for b in range(DECAY_BANDS):
            sel = (dists >= edges_q[b]) & (
                dists <= edges_q[b + 1] if b == DECAY_BANDS - 1 else dists < edges_q[b + 1]
            )
            band_max.append(float(mags[sel].max(initial=0.0)) if sel.any() else 0.0)
        notes.append(
            f"{lv.stratum}: band maxima (near -> far) "
            + ", ".join(f"{m:.3e}" for m in band_max)
        )
        for b in range(DECAY_BANDS - 1):
            if band_max[b] > band_max[b + 1] + slack:
                sel = (dists >= edges_q[b]) & (dists < edges_q[b + 1])
                worst = int(np.argmax(np.where(sel, mags, -np.inf)))
                violations.append(
                    Violation(
                        x=tuple(pts[worst]),
                        deficit=band_max[b] - band_max[b + 1],
                        message=(
                            f"shifted least-norm magnitude grows toward the "
                            f"boundary of {lv.stratum}"
                        ),
                    )
                )
    return AuditReport(
        kind="boundary-decay",
        passed=not violations,
        violations=tuple(violations),
        checked=checked,
        notes=tuple(notes),
    )
