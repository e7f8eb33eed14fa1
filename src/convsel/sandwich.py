"""Continuous interpolation between an upper-sc floor and a lower-sc ceiling.

Given f upper semicontinuous, g lower semicontinuous with f <= g, the
pipeline produces a continuous h with f <= h <= g, strictly between them
wherever f < g.  Everything runs in compressed coordinates: values are
squashed onto [-1, 1] first (infinities land exactly on the endpoints),
and the final answer is clamped one strictness margin inside the
endpoints before decompressing, so h is finite even against infinite
envelopes.

The recursion follows the user stratification last-to-first.  On the
final stratum the answer is the midpoint (f + g)/2.  Each earlier level
extends the partial answer from the later strata to everything (h1),
subtracts it, glues the zero function across the equality locus (h2/h3),
nudges the result strictly inside the envelopes on the sign regions
(h4), extends again (h5), and finally damps h5 to zero on the region
where the extension escaped the envelopes (delta), which is what keeps
the glued function strictly sandwiched.

Closed sets needed by the construction (the equality locus, boundaries,
the sign regions) are realized as clouds of construction-grid points, so
the Tietze operator always extends from finite data with baked values.

Evaluation runs on arrays, one pass per level: given the compressed
envelopes at a batch of points, a glue level computes h1, h3, the level
envelopes f2/g2, the regions U, X, V, Z1, Z2, S, W, then h4, h5, delta
and its total, each once for the whole batch.  A pass reads only its own
level's baked extensions, so levels never re-enter each other.  The pass
is the one evaluator of a level: a level's total and the selection
evaluate a single point as a batch of one row.  The construction takes
its clouds and baked values from the passes on the construction grid,
and each glue level keeps the arrays of its pass there that
:func:`region_audit` reads, so auditing the construction grid runs no
pass again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    EvalDomainError,
    InfeasibleBodyError,
    PostconditionError,
    StratificationError,
)
from .fields import (
    AuditReport,
    Domain,
    Grid,
    STRICTNESS_MARGIN,
    ScalarField,
    TAG_CONTINUOUS,
    Violation,
    _outermost_many,
    compress_field,
    constant_field,
    default_per_axis,
    pymax,
    pymin,
    semicontinuity_audit_values,
    sum_values,
    unsquash,
)
from .maps import Region, Stratification, boundary_mask, stratification_audit_masks
from .urysohn import ClosedSet, dist_field, tietze_extend

#: Two values within this of each other count as equal when forming the
#: equality locus X = {f = g}.
EQUALITY_TOL = 1e-12

#: Gap above which the strictness preconditions/postconditions are enforced.
STRICT_GAP = 1e-9

#: The arrays of a glue pass that :func:`region_audit` reads.
_AUDITED = ("U", "X", "V", "Z1", "Z2", "S", "W", "f2", "g2", "h4", "delta")


def _check_glue(P: np.ndarray, vf: np.ndarray, vg: np.ndarray):
    """The glue preconditions at every row of P (the points off U):
    f1 <= 0 <= g1, strictly where the gap is positive.  Raises at the
    first row that fails."""
    outside = (vf > STRICT_GAP) | (vg < -STRICT_GAP)
    bad = outside | ((vg - vf > STRICT_GAP) & ~((vf < 0.0) & (0.0 < vg)))
    if bad.any():
        i = int(np.argmax(bad))
        what = "glue precondition f-h <= 0 <= g-h fails" if outside[i] else "glue strictness fails"
        raise PostconditionError(f"{what} at {P[i].tolist()}: [{vf[i]:.3e}, {vg[i]:.3e}]")


# ---------------------------------------------------------------------------
# levels and driver


@dataclass(frozen=True)
class SandwichLevel:
    stratum: str
    kind: str  # "base" or "glue"
    #: the level's array pass: (X, f_c at X, g_c at X) -> dict of arrays
    arrays: Callable
    #: the pass's "total" as a field of x
    total: ScalarField
    #: a glue level's ``_AUDITED`` arrays of its pass on the construction
    #: grid, from the construction (None on the base level)
    on_grid: dict | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SandwichTrace:
    strata: tuple
    levels: tuple
    construction_grid: Grid
    h_compressed: ScalarField
    f_compressed: ScalarField
    g_compressed: ScalarField
    #: h at the construction grid's points, from the construction's outer pass
    h_values: np.ndarray = field(compare=False, repr=False)

    @property
    def outer(self) -> SandwichLevel:
        return self.levels[-1]


def _midpoint_pass(P: np.ndarray, fP: np.ndarray, gP: np.ndarray) -> dict:
    """The base level on arrays: the midpoint (f + g)/2 at every row of P,
    which needs finite (compressed) envelopes."""
    bad = ~(np.isfinite(fP) & np.isfinite(gP))
    if bad.any():
        raise EvalDomainError(
            f"midpoint of infinite values at {P[np.argmax(bad)].tolist()}; compress first"
        )
    return {"total": 0.5 * (fP + gP)}


class _GluePass:
    """A glue level on arrays: its fields and regions at a batch of points.

    The pass holds the level's stratum U, its extensions h1, h3, h5 (baked
    on clouds, so evaluating them never calls another level) and its
    distance fields eta1, eta2.  Each stage adds arrays to a dict; the
    construction runs the stages one by one as it bakes each extension,
    and a finished pass runs them all.  ``h2`` is NaN on U∖X and ``h4`` on
    V∖(Z1 ∪ Z2), where they are undefined, and ``delta`` where both of its
    hinges vanish; the level total raises if it needs delta there.
    """

    def __init__(self, U: Region):
        self.U = U
        self.h1 = self.h3 = self.h5 = self.eta1 = self.eta2 = None

    def __call__(self, P: np.ndarray, fP: np.ndarray, gP: np.ndarray) -> dict:
        a = {"f": fP, "g": gP, "U": self.U.mask(P)}
        for stage in (self.glue, self.split, self.adjust, self.damp):
            stage(P, a)
        return a

    def glue(self, P, a):
        """h1, the shifted envelopes f1/g1, the equality locus
        X = {f1 = g1} ∩ U and h2: zero off U, the common value on X."""
        h1 = self.h1.many(P)
        a["h1"] = h1
        a["f1"] = sum_values(a["f"], -h1)
        a["g1"] = sum_values(a["g"], -h1)
        a["X"] = a["U"] & (np.abs(a["f1"] - a["g1"]) <= EQUALITY_TOL)
        a["h2"] = np.where(a["U"], np.where(a["X"], a["f1"], np.nan), 0.0)

    def split(self, P, a):
        """h3, the level envelopes f2/g2 and the regions V = U∖X, Z1 (the
        floor has caught up, f2 >= 0), Z2 (the ceiling has, g2 <= 0) and
        S = Z1 ∪ Z2 ∪ (E∖V)."""
        h3 = self.h3.many(P)
        a["h3"] = h3
        a["f2"] = sum_values(a["f1"], -h3)
        a["g2"] = sum_values(a["g1"], -h3)
        a["V"] = a["U"] & ~a["X"]
        a["Z1"] = a["f2"] >= 0.0
        a["Z2"] = a["g2"] <= 0.0
        a["S"] = a["Z1"] | a["Z2"] | ~a["V"]

    def adjust(self, P, a):
        """h4, the strictly-inside nudge: zero off V, min(f2 + eta1,
        midpoint) on V ∩ Z1 and max(g2 - eta2, midpoint) on V ∩ Z2∖Z1.
        The etas vanish exactly on the boundary-of-V slices of Z1/Z2,
        which is what lets the three cases meet continuously."""
        f2, g2, V = a["f2"], a["g2"], a["V"]
        mid = 0.5 * (f2 + g2)
        h4 = np.where(V, np.nan, 0.0)
        on1 = V & a["Z1"]
        on2 = V & ~a["Z1"] & a["Z2"]
        if on1.any():
            h4[on1] = pymin(f2[on1] + self.eta1.many(P[on1]), mid[on1])
        if on2.any():
            h4[on2] = pymax(g2[on2] - self.eta2.many(P[on2]), mid[on2])
        a["h4"] = h4

    def damp(self, P, a):
        """h5, the escape region W, delta and the level total: h5 on S,
        delta * h5 elsewhere.

        W collects the V-points where h5 escaped the open envelope (h5 <=
        f2 or h5 >= g2).  delta is 0 exactly on W and 1 exactly on V ∩ (Z1
        ∪ Z2) ⊆ S, as a ratio of two hinges whose zero sets are exactly
        those: phi_W = (min(h5 - f2, g2 - h5))⁺ and phi_B = (min(-f2,
        g2))⁺.  Both zero at one point off S would mean W meets V ∩ (Z1 ∪
        Z2), which the construction of h4 rules out; it raises as an
        upstream failure.
        """
        f2, g2, S = a["f2"], a["g2"], a["S"]
        h5 = self.h5.many(P)
        phi_w = pymax(0.0, pymin(h5 - f2, g2 - h5))
        phi_b = pymax(0.0, pymin(-f2, g2))
        tot = phi_w + phi_b
        defined = tot > 0.0
        delta = np.divide(phi_w, tot, out=np.full(tot.shape, np.nan), where=defined)
        if np.any(~S & ~defined):
            _delta_undefined(P[np.argmax(~S & ~defined)])
        glued = np.where(S, h5, delta * h5)
        a["h5"] = h5
        a["W"] = a["V"] & ((h5 <= f2) | (h5 >= g2))
        a["delta"] = delta
        a["total"] = sum_values(sum_values(glued, a["h3"]), a["h1"])


def _delta_undefined(x):
    raise PostconditionError(
        f"W meets V∩(Z1∪Z2) at {np.asarray(x).tolist()} — "
        "the interior adjustment failed upstream"
    )


def _eta_for(P: np.ndarray, near: np.ndarray, E: Domain, name: str) -> ScalarField:
    pts = P[near]
    if pts.shape[0]:
        return dist_field(ClosedSet.from_cloud(pts), E, name=name)
    # the boundary slice is empty: any positive continuous function works
    return constant_field(E, 1.0, name=name)


def _bake(lvl: _GluePass, grid: Grid, a: dict, inner: np.ndarray) -> dict:
    """Run the stages of ``lvl`` on the construction grid, baking each
    extension from the arrays of the stages before it.  ``a`` holds the
    envelopes and U's mask there, ``inner`` the next level's total."""
    P, E = grid.points, grid.domain
    outside = ~a["U"]
    lvl.h1 = tietze_extend(
        None, ClosedSet.from_cloud(P[outside]), E, name="h1", values=inner[outside]
    )
    lvl.glue(P, a)
    _check_glue(P[outside], a["f1"][outside], a["g1"][outside])
    glued = outside | a["X"]
    lvl.h3 = tietze_extend(
        None, ClosedSet.from_cloud(P[glued]), E, name="h3", values=a["h2"][glued]
    )
    lvl.split(P, a)
    boundary = boundary_mask(a["V"], grid)
    lvl.eta1 = _eta_for(P, boundary & a["Z1"], E, "eta1")
    lvl.eta2 = _eta_for(P, boundary & a["Z2"], E, "eta2")
    lvl.adjust(P, a)
    lvl.h5 = tietze_extend(
        None, ClosedSet.from_cloud(P[a["S"]]), E, name="h5", values=a["h4"][a["S"]]
    )
    lvl.damp(P, a)
    return a


def _build_levels(
    f_c: ScalarField,
    g_c: ScalarField,
    strat: Stratification,
    masks: np.ndarray,
    grid: Grid,
    fP: np.ndarray,
    gP: np.ndarray,
) -> tuple[list[SandwichLevel], np.ndarray]:
    """The levels innermost first: the midpoint on the last stratum, then a
    glue level for each earlier stratum, baked from the arrays of the level
    inside it (f_c and g_c are the compressed envelopes, fP and gP their
    values on the construction grid, masks the strata's there); and the
    outer level's total on the construction grid."""

    def level(label, kind, arrays, on_grid=None):
        def batch(X):
            return arrays(X, f_c.many(X), g_c.many(X))["total"]

        total = ScalarField(
            grid.domain, batch=batch, tag=TAG_CONTINUOUS, name=f"total[{label}]"
        )
        return SandwichLevel(label, kind, arrays, total, on_grid)

    levels = [level(strat.strata[-1].label, "base", _midpoint_pass)]
    a = _midpoint_pass(grid.points, fP, gP)
    for j in range(strat.depth - 2, -1, -1):
        U = strat.strata[j]
        lvl = _GluePass(U)
        a = _bake(lvl, grid, {"f": fP, "g": gP, "U": masks[j]}, a["total"])
        levels.append(level(U.label, "glue", lvl, {k: a[k] for k in _AUDITED}))
    return levels, a["total"]


def sandwich_select(
    f: ScalarField,
    g: ScalarField,
    strat: Stratification,
    resolution: int | None = None,
):
    """Continuous h with f <= h <= g, strict wherever f < g.

    ``resolution`` is the construction grid density (points per axis)
    used to realize the pipeline's closed sets as clouds; audits of the
    result happen on whatever grid the caller chooses afterwards.
    Raises at the first construction point, in grid order, where f > g
    or an envelope fails to evaluate (the check is one batch, searched by
    halves only when it fails), or when the
    stratification fails its audits (partition, relative openness,
    per-stratum continuity of the envelopes).  The returned h evaluates
    batches with ``h.many``: the envelopes once, then the outer level's
    array pass.  The trace's ``h_values`` are h at the construction grid's
    points, taken from the outer level's pass there.
    """
    E = f.domain or g.domain
    if E is None:
        raise ValueError("sandwich_select needs a domain on f or g")
    if resolution is None:
        resolution = default_per_axis(E.ambient_dim)
    grid = Grid(E, resolution)
    P = grid.points

    f_c, g_c = compress_field(f), compress_field(g)

    def envelopes_at(X):  # raises at the first crossed row
        fX, gX = f_c.many(X), g_c.many(X)
        crossed = fX > gX + EQUALITY_TOL
        if crossed.any():
            x = X[np.argmax(crossed)].tolist()
            raise InfeasibleBodyError(f"empty interval: f(x) > g(x) at x={x}")
        return fX, gX

    fP, gP = _outermost_many(
        envelopes_at, P, join=lambda halves: [np.concatenate(c) for c in zip(*halves)]
    )

    masks = strat.masks(P)
    report = stratification_audit_masks(masks, grid)
    if not report.passed:
        v = report.violations[0]
        raise StratificationError(
            f"stratification audit failed: {v.message}{f' at {v.x}' if v.x else ''}"
        )
    # the envelope audits read the values already computed on the grid
    for j, stratum in enumerate(strat.strata):
        for vals, label in ((fP, "floor"), (gP, "ceiling")):
            rep = semicontinuity_audit_values(vals, grid, TAG_CONTINUOUS, mask=masks[j])
            if not rep.passed:
                v = rep.violations[0]
                raise StratificationError(
                    f"{label} is not continuous on stratum {j} "
                    f"({stratum.label!r}): jump {v.deficit:.3e} at {v.x}"
                )
    for vals, tag, label in ((fP, f_c.tag, "floor"), (gP, g_c.tag, "ceiling")):
        rep = semicontinuity_audit_values(vals, grid, tag)
        if not rep.passed:
            v = rep.violations[0]
            raise StratificationError(
                f"{label} fails its declared semicontinuity: "
                f"deficit {v.deficit:.3e} at {v.x}"
            )

    levels, total = _build_levels(f_c, g_c, strat, masks, grid, fP, gP)
    h_c = levels[-1].total
    lo = -1.0 + STRICTNESS_MARGIN
    hi = 1.0 - STRICTNESS_MARGIN

    def h_of(w):
        return unsquash(np.minimum(np.maximum(w, lo), hi))

    def h_batch(X):
        return h_of(h_c.many(X))

    trace = SandwichTrace(
        strata=tuple(r.label for r in strat.strata),
        levels=tuple(levels),
        construction_grid=grid,
        h_compressed=h_c,
        f_compressed=f_c,
        g_compressed=g_c,
        h_values=h_of(total),
    )
    return ScalarField(E, batch=h_batch, tag=TAG_CONTINUOUS, name="sandwich"), trace


def region_audit(trace: SandwichTrace, grid: Grid) -> AuditReport:
    """Re-check the non-definitional facts tying a trace's regions and
    fields together, at every grid point: S ∪ V covers, X ⊆ U, V = U∖X,
    delta lands in [0,1] with the right values on W and V∩(Z1∪Z2), W
    stays clear of V∩(Z1∪Z2), and h4 carries the advertised signs.

    Each glue level is checked on the arrays of its pass over the grid:
    those the construction kept (``on_grid``) when the grid's points are
    the construction grid's bit for bit, and a pass run now on any other
    grid.  Violations come in the order of a sweep over levels, then
    points, then the checks as listed."""
    violations = []
    checked = 0
    P = grid.points
    glue = [level for level in trace.levels if level.kind == "glue"]
    G = trace.construction_grid.points
    kept = P.shape == G.shape and np.array_equal(P.view(np.int64), G.view(np.int64))
    if glue and not kept:
        fP, gP = trace.f_compressed.many(P), trace.g_compressed.many(P)
    for level in glue:
        a = level.on_grid if kept else level.arrays(P, fP, gP)
        checked += P.shape[0]
        U, X, V, Z1, Z2, S, W = (a[k] for k in ("U", "X", "V", "Z1", "Z2", "S", "W"))
        f2, g2, h4, d = a["f2"], a["g2"], a["h4"], a["delta"]
        in_b = Z1 | Z2
        clash = V & W & in_b
        live = V & ~clash  # where delta is read
        if np.any(live & np.isnan(d)):
            _delta_undefined(P[np.argmax(live & np.isnan(d))])
        signs = live & in_b  # where h4 is read
        checks = (
            (~(S | V), lambda i: 1.0, "S ∪ V misses a point"),
            (X & ~U, lambda i: 1.0, "X escapes U"),
            (V != (U & ~X), lambda i: 1.0, "V is not U∖X"),
            (clash, lambda i: 1.0, "W meets V∩(Z1∪Z2)"),
            (live & ~((d >= -1e-15) & (d <= 1.0 + 1e-15)),
             lambda i: abs(float(d[i]) - 0.5) - 0.5, "delta outside [0,1]"),
            (live & in_b & (d != 1.0),
             lambda i: 1.0 - float(d[i]), "delta != 1 on V∩(Z1∪Z2)"),
            (live & W & (d != 0.0), lambda i: float(d[i]), "delta != 0 on W"),
            (signs & ~((f2 < h4) & (h4 < g2)),
             lambda i: max(float(f2[i] - h4[i]), float(h4[i] - g2[i])),
             "h4 not strictly inside [f2, g2] on V∩(Z1∪Z2)"),
            (signs & Z1 & ~(h4 > 0.0), lambda i: -float(h4[i]), "h4 <= 0 on Z1∩V"),
            (signs & Z2 & ~(h4 < 0.0), lambda i: float(h4[i]), "h4 >= 0 on Z2∩V"),
        )
        for i in np.flatnonzero(np.logical_or.reduce([m for m, _, _ in checks])):
            for mask, deficit, message in checks:
                if mask[i]:
                    violations.append(Violation(tuple(P[i]), deficit(i), message=message))
    return AuditReport(
        kind="sandwich-regions",
        passed=not violations,
        violations=tuple(violations),
        checked=checked,
    )
