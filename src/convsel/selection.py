"""Continuous selections of set-valued maps via stratified recursion.

The single-stratum case is the least-norm selection: project the origin
onto each value.  With k strata the recursion selects on the later
strata D = C_2 ∪ ... ∪ C_k, extends that partial selection to the whole
domain componentwise (Tietze over a construction-grid cloud of D, with
the values baked), subtracts the extension from the map, takes the
least-norm selection of the shifted map on the open top stratum and zero
elsewhere, and adds the extension back.  On D the shifted map contains
the origin, so its least-norm selection vanishes there — that is the
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
)
from .maps import (
    Region,
    SetValuedMap,
    Stratification,
    boundary_cloud,
    hypothesis_audits,
    region_or,
    shift,
)
from .urysohn import ClosedSet, tietze_extend


def lns_field(map_: SetValuedMap) -> VectorField:
    """The least-norm selection x -> argmin{ |y| : y in T(x) }."""
    return VectorField(
        map_.domain,
        map_.output_dim,
        lambda x: map_.evaluate(x).least_norm(),
        tag=TAG_CONTINUOUS,
        name=f"lns({map_.name})" if map_.name else "lns",
    )


def extend_componentwise(
    fv, dim: int, cloud: ClosedSet, E: Domain, name: str = ""
) -> VectorField:
    """Tietze-extend a vector function coordinate by coordinate; values
    over a finite cloud are always bounded, so the plain bounded operator
    applies."""
    comps = [
        tietze_extend(
            lambda x, i=i: float(np.asarray(fv(x), dtype=float)[i]),
            cloud, E, name=f"{name}[{i}]" if name else "",
        )
        for i in range(dim)
    ]
    return VectorField.from_components(comps, name=name)


@dataclass(frozen=True)
class MichaelLevel:
    stratum: str
    kind: str  # "base" or "glue"
    total: VectorField
    C1: Region | None = None
    D: Region | None = None
    partial: VectorField | None = None
    extension: VectorField | None = None
    shifted: SetValuedMap | None = None
    glued: VectorField | None = None  # lns of the shifted map on C1, 0 on D


@dataclass(frozen=True)
class MichaelTrace:
    strata: tuple
    levels: tuple
    construction_grid: Grid

    @property
    def outer(self) -> MichaelLevel:
        return self.levels[-1]


def _select(
    map_: SetValuedMap,
    strata: tuple,
    grid: Grid,
    levels: list,
) -> VectorField:
    if len(strata) == 1:
        h = lns_field(map_)
        levels.append(MichaelLevel(stratum=strata[0].label, kind="base", total=h))
        return h

    C1 = strata[0]
    D = region_or(*strata[1:])
    partial = _select(map_, strata[1:], grid, levels)

    pts = grid.points[D.mask(grid.points)]
    if pts.shape[0] == 0:
        raise StratificationError(
            f"strata tail {D.label!r} holds no construction grid point"
        )
    extension = extend_componentwise(
        partial, map_.output_dim, ClosedSet.from_cloud(pts), map_.domain,
        name="partial-extension",
    )
    shifted = shift(map_, extension)
    shifted_lns = lns_field(shifted)
    zero = np.zeros(map_.output_dim)

    def glued_rule(x):
        return shifted_lns(x) if C1(x) else zero

    glued = VectorField(
        map_.domain, map_.output_dim, glued_rule, tag=TAG_CONTINUOUS, name="glued"
    )

    def total_rule(x):
        return glued(x) + extension(x)

    total = VectorField(
        map_.domain, map_.output_dim, total_rule, tag=TAG_CONTINUOUS, name="selection"
    )
    levels.append(
        MichaelLevel(
            stratum=C1.label,
            kind="glue",
            total=total,
            C1=C1,
            D=D,
            partial=partial,
            extension=extension,
            shifted=shifted,
            glued=glued,
        )
    )
    return total


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
        resolution = 129 if E.ambient_dim == 1 else 17
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

    levels: list[MichaelLevel] = []
    h = _select(map_, tuple(strat.strata), grid, levels)
    trace = MichaelTrace(
        strata=tuple(r.label for r in strat.strata),
        levels=tuple(levels),
        construction_grid=grid,
    )
    return h, trace


def boundary_decay_audit(
    trace: MichaelTrace, grid: Grid, bands: int = 4
) -> AuditReport:
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
        cloud = boundary_cloud(lv.C1, grid)
        if cloud.shape[0] == 0:
            notes.append(f"{lv.stratum}: boundary invisible at this resolution")
            continue
        inside = lv.C1.mask(grid.points)
        pts = grid.points[inside]
        checked += pts.shape[0]
        bset = ClosedSet.from_cloud(cloud)
        dists = bset.dist_many(pts)
        mags = np.array([float(np.linalg.norm(lv.glued(x))) for x in pts])
        vmax = float(mags.max(initial=0.0))
        slack = 1e-9 + 0.05 * vmax
        edges_q = np.quantile(dists, np.linspace(0, 1, bands + 1))
        band_max = []
        for b in range(bands):
            sel = (dists >= edges_q[b]) & (
                dists <= edges_q[b + 1] if b == bands - 1 else dists < edges_q[b + 1]
            )
            band_max.append(float(mags[sel].max(initial=0.0)) if sel.any() else 0.0)
        notes.append(
            f"{lv.stratum}: band maxima (near -> far) "
            + ", ".join(f"{m:.3e}" for m in band_max)
        )
        for b in range(bands - 1):
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
