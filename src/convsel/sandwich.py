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
level's baked extensions, so levels never re-enter each other.  The
selection's ``many`` evaluates the envelopes once and runs the outer
pass; :func:`region_audit` reads the passes' arrays; and the
construction takes its clouds and baked values from the passes on the
construction grid.  The pointwise stage operators below and the fields
of each :class:`SandwichLevel` stay as the reference that the passes
reproduce bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import (
    EvalDomainError,
    InfeasibleBodyError,
    PostconditionError,
    StratificationError,
    UncoveredPointError,
)
from .fields import (
    EVAL_ERRORS,
    AuditReport,
    Domain,
    Grid,
    STRICTNESS_MARGIN,
    ScalarField,
    TAG_CONTINUOUS,
    Violation,
    add,
    compress_field,
    constant_field,
    negate,
    pymax,
    pymin,
    semicontinuity_audit_values,
    sum_values,
    unsquash,
)
from .maps import (
    Region,
    Stratification,
    boundary_mask,
    region_not,
    region_or,
    stratification_audit,
)
from .urysohn import ClosedSet, dist_field, tietze_extend

#: Two values within this of each other count as equal when forming the
#: equality locus X = {f = g}.
EQUALITY_TOL = 1e-12

#: Gap above which the strictness preconditions/postconditions are enforced.
STRICT_GAP = 1e-9


# ---------------------------------------------------------------------------
# stage operators


def reduce_to_bounded(f: ScalarField, g: ScalarField):
    """Squash both envelopes onto [-1, 1]; tags survive (the squash map is
    a strictly increasing homeomorphism of the extended line onto it).

    Compression is applied unconditionally, so the final answer is always
    clamped a strictness margin inside the endpoints and decompressed.
    """
    return compress_field(f), compress_field(g)


def base_midpoint(f: ScalarField, g: ScalarField, domain: Domain | None = None) -> ScalarField:
    """(f + g)/2, the base-case selection; inputs must be finite."""

    def rule(x):
        vf, vg = f(x), g(x)
        if not (math.isfinite(vf) and math.isfinite(vg)):
            raise EvalDomainError(
                f"midpoint of infinite values at {np.asarray(x).tolist()}; compress first"
            )
        return 0.5 * (vf + vg)

    return ScalarField(domain or f.domain, rule, tag=TAG_CONTINUOUS, name="midpoint")


def equalizer_glue(
    f: ScalarField,
    g: ScalarField,
    U: Region,
    E: Domain,
    h_prev: ScalarField | None = None,
    grid: Grid | None = None,
):
    """Zero function on E∖U glued with the common value on X = {f = g} ∩ U.

    ``h_prev`` (the extension of the partial answer from E∖U) is
    subtracted first; the preconditions — f - h_prev <= 0 <= g - h_prev on
    E∖U, strictly where the gap is positive — are audited on ``grid``
    when one is supplied.  Returns (h2 on (E∖U) ∪ X, X).
    """
    if h_prev is None:
        h_prev = constant_field(E, 0.0)
    f1 = add(f, negate(h_prev))
    g1 = add(g, negate(h_prev))

    X = Region(
        lambda x: U(x) and abs(f1(x) - g1(x)) <= EQUALITY_TOL,
        f"equality locus in {U.label or 'U'}",
    )

    if grid is not None:
        for x in grid.points:
            if not U(x):
                _check_glue_point(x, f1(x), g1(x))

    def rule(x):
        if not U(x):
            return 0.0
        if X(x):
            return f1(x)
        raise UncoveredPointError(
            f"{np.asarray(x).tolist()} is outside (E∖U) ∪ X"
        )

    h2 = ScalarField(E, rule, tag=TAG_CONTINUOUS, name="equalizer-glue")
    return h2, X


def _check_glue_point(x, vf: float, vg: float):
    if vf > STRICT_GAP or vg < -STRICT_GAP:
        raise PostconditionError(
            f"glue precondition f-h <= 0 <= g-h fails at {x.tolist()}: "
            f"[{vf:.3e}, {vg:.3e}]"
        )
    if vg - vf > STRICT_GAP and not (vf < 0.0 < vg):
        raise PostconditionError(
            f"glue strictness fails at {x.tolist()}: [{vf:.3e}, {vg:.3e}]"
        )


def interior_adjust(
    f: ScalarField,
    g: ScalarField,
    V: Region,
    Z1: Region,
    Z2: Region,
    eta1: ScalarField,
    eta2: ScalarField,
    domain: Domain | None = None,
) -> ScalarField:
    """The strictly-inside nudge on S = Z1 ∪ Z2 ∪ (E∖V).

    Zero off V; min(f + eta1, midpoint) where the floor has reached 0
    (Z1), max(g - eta2, midpoint) where the ceiling has (Z2).  The etas
    vanish exactly on the boundary-of-V slices of Z1/Z2, which is what
    lets the three cases meet continuously.
    """

    def rule(x):
        if not V(x):
            return 0.0
        vf, vg = f(x), g(x)
        mid = 0.5 * (vf + vg)
        if Z1(x):
            return min(vf + eta1(x), mid)
        if Z2(x):
            return max(vg - eta2(x), mid)
        raise UncoveredPointError(f"{np.asarray(x).tolist()} is outside S")

    return ScalarField(domain or f.domain, rule, tag=TAG_CONTINUOUS, name="interior-adjust")


def damp_to_safe(
    h5: ScalarField,
    f: ScalarField,
    g: ScalarField,
    V: Region,
    Z1: Region,
    Z2: Region,
):
    """Final glue: h5 on S, delta * h5 on V.

    W collects the V-points where the extension h5 escaped the open
    envelope (h5 <= f or h5 >= g).  delta is 0 exactly on W and 1 exactly
    on V ∩ (Z1 ∪ Z2) ⊆ S, built as a ratio of two hinge functions whose
    zero sets are exactly those: phi_W = (min(h5-f, g-h5))⁺ vanishes
    exactly under W's condition, phi_B = (min(-f, g))⁺ vanishes exactly
    on Z1 ∪ Z2.  Both zero at one V-point would mean W meets
    V ∩ (Z1 ∪ Z2), which the construction of h4 rules out — it is
    reported as an upstream failure.  Returns (h, delta, W).
    """
    S = region_or(Z1, Z2, region_not(V))
    W = Region(
        lambda x: V(x) and (h5(x) <= f(x) or h5(x) >= g(x)),
        "escape region W",
    )

    def delta_rule(x):
        vf, vg, v5 = f(x), g(x), h5(x)
        phi_w = max(0.0, min(v5 - vf, vg - v5))
        phi_b = max(0.0, min(-vf, vg))
        tot = phi_w + phi_b
        if tot <= 0.0:
            raise PostconditionError(
                f"W meets V∩(Z1∪Z2) at {np.asarray(x).tolist()} — "
                "the interior adjustment failed upstream"
            )
        return phi_w / tot

    delta = ScalarField(f.domain, delta_rule, tag=TAG_CONTINUOUS, name="delta")

    def h_rule(x):
        if S(x):
            return h5(x)
        return delta(x) * h5(x)

    h = ScalarField(f.domain, h_rule, tag=TAG_CONTINUOUS, name="damped-glue")
    return h, delta, W


# ---------------------------------------------------------------------------
# trace and driver


@dataclass(frozen=True)
class SandwichLevel:
    stratum: str
    kind: str  # "base" or "glue"
    h0: ScalarField | None = None
    h1: ScalarField | None = None
    h2: ScalarField | None = None
    h3: ScalarField | None = None
    h4: ScalarField | None = None
    h5: ScalarField | None = None
    eta1: ScalarField | None = None
    eta2: ScalarField | None = None
    delta: ScalarField | None = None
    f_level: ScalarField | None = None
    g_level: ScalarField | None = None
    regions: dict = dc_field(default_factory=dict)
    total: ScalarField | None = None
    #: the level's array pass: (X, f_c at X, g_c at X) -> dict of arrays
    arrays: Callable | None = None


@dataclass(frozen=True)
class SandwichTrace:
    strata: tuple
    levels: tuple
    construction_grid: Grid
    h_compressed: ScalarField | None = None
    f_compressed: ScalarField | None = None
    g_compressed: ScalarField | None = None

    @property
    def outer(self) -> SandwichLevel:
        return self.levels[-1]


def _midpoint_pass(P: np.ndarray, fP: np.ndarray, gP: np.ndarray) -> dict:
    """The base level on arrays: :func:`base_midpoint` at every row of P."""
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
    distance fields eta1, eta2.  Each stage adds arrays to a dict, with
    the formulas of the pointwise stage operators; the construction runs
    the stages one by one as it bakes each extension, and a finished pass
    runs them all.  ``h2`` and ``h4`` are NaN where the pointwise fields
    raise (U∖X, and V∖(Z1 ∪ Z2)), ``delta`` where it would raise.
    """

    def __init__(self, U: Region):
        self.U = U
        self.h1 = self.h3 = self.h5 = self.eta1 = self.eta2 = None

    def __call__(self, P: np.ndarray, fP: np.ndarray, gP: np.ndarray) -> dict:
        a = self.start(P, fP, gP)
        for stage in (self.glue, self.split, self.adjust, self.damp):
            stage(P, a)
        return a

    def start(self, P, fP, gP) -> dict:
        return {"f": fP, "g": gP, "U": self.U.mask(P)}

    def glue(self, P, a):
        """h1, the shifted envelopes f1/g1, the equality locus X and h2."""
        h1 = self.h1.many(P)
        a["h1"] = h1
        a["f1"] = sum_values(a["f"], -h1)
        a["g1"] = sum_values(a["g"], -h1)
        a["X"] = a["U"] & (np.abs(a["f1"] - a["g1"]) <= EQUALITY_TOL)
        a["h2"] = np.where(a["U"], np.where(a["X"], a["f1"], np.nan), 0.0)

    def split(self, P, a):
        """h3, the level envelopes f2/g2 and the regions V, Z1, Z2, S."""
        h3 = self.h3.many(P)
        a["h3"] = h3
        a["f2"] = sum_values(a["f1"], -h3)
        a["g2"] = sum_values(a["g1"], -h3)
        a["V"] = a["U"] & ~a["X"]
        a["Z1"] = a["f2"] >= 0.0
        a["Z2"] = a["g2"] <= 0.0
        a["S"] = a["Z1"] | a["Z2"] | ~a["V"]

    def adjust(self, P, a):
        """h4: zero off V, the nudge on V ∩ (Z1 ∪ Z2)."""
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
        """h5, the escape region W, delta and the level total."""
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


def _cloud_of(P: np.ndarray, mask: np.ndarray, what: str) -> ClosedSet:
    if not mask.any():
        raise StratificationError(
            f"{what} contains no construction grid point; refine the "
            "construction grid or fix the stratification"
        )
    return ClosedSet.from_cloud(P[mask])


def _select_level(
    f: ScalarField,
    g: ScalarField,
    strata: tuple,
    E: Domain,
    grid: Grid,
    fP: np.ndarray,
    gP: np.ndarray,
    levels: list,
) -> dict:
    """Append the levels of ``strata``, innermost first, and return the
    outermost one's arrays on the construction grid (f and g are the
    compressed envelopes, fP and gP their values there)."""
    P = grid.points
    if len(strata) == 1:
        h0 = base_midpoint(f, g, E)
        levels.append(
            SandwichLevel(stratum=strata[0].label, kind="base", h0=h0,
                          f_level=f, g_level=g, total=h0, arrays=_midpoint_pass)
        )
        return _midpoint_pass(P, fP, gP)

    U = strata[0]
    rest = _select_level(f, g, strata[1:], E, grid, fP, gP, levels)
    h_rest = levels[-1].total
    lvl = _GluePass(U)
    a = lvl.start(P, fP, gP)

    outside = ~a["U"]
    lvl.h1 = h1 = tietze_extend(
        h_rest, _cloud_of(P, outside, "the tail of the stratification"), E,
        name="h1", values=rest["total"][outside],
    )
    lvl.glue(P, a)
    for x, vf, vg in zip(P[outside], a["f1"][outside].tolist(), a["g1"][outside].tolist()):
        _check_glue_point(x, vf, vg)
    h2, X = equalizer_glue(f, g, U, E, h_prev=h1)
    glued = outside | a["X"]
    lvl.h3 = h3 = tietze_extend(
        h2, _cloud_of(P, glued, "(E∖U) ∪ X"), E, name="h3", values=a["h2"][glued]
    )
    lvl.split(P, a)

    f2 = add(add(f, negate(h1)), negate(h3))
    g2 = add(add(g, negate(h1)), negate(h3))

    V = Region(lambda x: U(x) and not X(x), f"{U.label or 'U'} minus equality locus")
    Z1 = Region(lambda x: f2(x) >= 0.0, "floor has caught up (f2 >= 0)")
    Z2 = Region(lambda x: g2(x) <= 0.0, "ceiling has caught up (g2 <= 0)")

    boundary = boundary_mask(a["V"], grid)
    lvl.eta1 = eta1 = _eta_for(P, boundary & a["Z1"], E, "eta1")
    lvl.eta2 = eta2 = _eta_for(P, boundary & a["Z2"], E, "eta2")
    lvl.adjust(P, a)

    h4 = interior_adjust(f2, g2, V, Z1, Z2, eta1, eta2, E)
    S = region_or(Z1, Z2, region_not(V))
    lvl.h5 = h5 = tietze_extend(
        h4, _cloud_of(P, a["S"], "S = Z1 ∪ Z2 ∪ (E∖V)"), E, name="h5",
        values=a["h4"][a["S"]],
    )
    lvl.damp(P, a)

    h_glued, delta, W = damp_to_safe(h5, f2, g2, V, Z1, Z2)
    total = add(add(h_glued, h3), h1)
    levels.append(
        SandwichLevel(
            stratum=U.label,
            kind="glue",
            h1=h1, h2=h2, h3=h3, h4=h4, h5=h5,
            eta1=eta1, eta2=eta2, delta=delta,
            f_level=f2, g_level=g2,
            regions={
                "U": U, "X": X, "V": V, "Z1": Z1, "Z2": Z2,
                "Y": Region(lambda x: f2(x) < 0.0 < g2(x), "strictly mixed sign"),
                "S": S, "W": W,
            },
            total=total,
            arrays=lvl,
        )
    )
    return a


def _check_not_crossed(x, vf: float, vg: float):
    if vf > vg + EQUALITY_TOL:
        raise InfeasibleBodyError(f"empty interval: f(x) > g(x) at x={x.tolist()}")


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
    Raises if f > g at a construction point, or when the stratification
    fails its audits (partition, relative openness, per-stratum
    continuity of the envelopes).  The returned h evaluates batches with
    ``h.many``: the envelopes once, then the outer level's array pass.
    """
    E = f.domain or g.domain
    if E is None:
        raise ValueError("sandwich_select needs a domain on f or g")
    if resolution is None:
        resolution = 129 if E.ambient_dim == 1 else 17
    grid = Grid(E, resolution)
    P = grid.points

    f_c, g_c = reduce_to_bounded(f, g)

    try:
        fP, gP = f_c.many(P), g_c.many(P)
    except EVAL_ERRORS:
        # the pointwise order decides whether a crossing comes first
        for x in P:
            _check_not_crossed(x, f_c(x), g_c(x))
        raise
    crossed = np.flatnonzero(fP > gP + EQUALITY_TOL)
    if crossed.size:
        _check_not_crossed(P[crossed[0]], fP[crossed[0]], gP[crossed[0]])

    report = stratification_audit(strat, grid)
    if not report.passed:
        raise StratificationError(
            "stratification audit failed: "
            f"{report.violations[0].message} at {report.violations[0].x}",
        )
    # the envelope audits read the values already computed on the grid
    for j, stratum in enumerate(strat.strata):
        mask = stratum.mask(P)
        for vals, label in ((fP, "floor"), (gP, "ceiling")):
            rep = semicontinuity_audit_values(vals, grid, TAG_CONTINUOUS, mask=mask)
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

    levels: list[SandwichLevel] = []
    _select_level(f_c, g_c, tuple(strat.strata), E, grid, fP, gP, levels)
    outer = levels[-1]
    h_c = dataclasses.replace(
        outer.total,
        batch=lambda X: outer.arrays(X, f_c.many(X), g_c.many(X))["total"],
    )

    lo = -1.0 + STRICTNESS_MARGIN
    hi = 1.0 - STRICTNESS_MARGIN

    def h_rule(x):
        return unsquash(min(max(h_c(x), lo), hi))

    def h_batch(X):
        w = np.minimum(np.maximum(h_c.many(X), lo), hi)
        # unsquash: np.sqrt rounds as math.sqrt does
        return w / np.sqrt((1.0 - w) * (1.0 + w))

    h = ScalarField(E, h_rule, tag=TAG_CONTINUOUS, name="sandwich", batch=h_batch)
    trace = SandwichTrace(
        strata=tuple(r.label for r in strat.strata),
        levels=tuple(levels),
        construction_grid=grid,
        h_compressed=h_c,
        f_compressed=f_c,
        g_compressed=g_c,
    )
    return h, trace


def region_audit(trace: SandwichTrace, grid: Grid) -> AuditReport:
    """Re-check the non-definitional facts tying a trace's regions and
    fields together, at every grid point: S ∪ V covers, X ⊆ U, V = U∖X,
    delta lands in [0,1] with the right values on W and V∩(Z1∪Z2), W
    stays clear of V∩(Z1∪Z2), and h4 carries the advertised signs.

    Each glue level is checked on the arrays of its pass over the grid;
    violations come in the order of a sweep over levels, then points,
    then the checks as listed."""
    violations = []
    checked = 0
    P = grid.points
    glue = [level for level in trace.levels if level.kind == "glue"]
    if glue:
        fP, gP = trace.f_compressed.many(P), trace.g_compressed.many(P)
    for level in glue:
        a = level.arrays(P, fP, gP)
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
