"""The sandwich construction's stages one point at a time: the oracle
that the array passes of ``convsel.sandwich`` must reproduce bit for bit.

Each stage operator maps per-point functions and regions to per-point
functions and regions; a function is anything that takes a point and
returns a float, a field of ``convsel`` included.  :func:`pointwise_levels`
rebuilds every level of a trace from these operators around the
extensions its pass baked (h1, h3, h5) and its distance fields (eta1,
eta2), each read once at a point, so a test can compare each array of a
pass with the function it stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from convsel.errors import EvalDomainError, PostconditionError, UncoveredPointError
from convsel.fields import (
    STRICTNESS_MARGIN,
    Domain,
    Grid,
    ScalarField,
    TAG_CONTINUOUS,
    unsquash,
)
from convsel.sandwich import EQUALITY_TOL, STRICT_GAP
from reference.fields_pointwise import add, compress_field, lift, negate, once_per_point
from reference.maps_pointwise import PointwiseRegion, region_not, region_or


def reduce_to_bounded(f: ScalarField, g: ScalarField):
    """Squash both envelopes onto [-1, 1]; tags survive (the squash map is
    a strictly increasing homeomorphism of the extended line onto it)."""
    return compress_field(f), compress_field(g)


def base_midpoint(f, g, domain: Domain | None = None) -> ScalarField:
    """(f + g)/2, the base-case selection, as a field on ``domain`` (f's
    by default); inputs must be finite."""

    def rule(x):
        vf, vg = f(x), g(x)
        if not (math.isfinite(vf) and math.isfinite(vg)):
            raise EvalDomainError(
                f"midpoint of infinite values at {np.asarray(x).tolist()}; compress first"
            )
        return 0.5 * (vf + vg)

    return lift(domain or f.domain, rule, tag=TAG_CONTINUOUS, name="midpoint")


def check_glue_point(x, vf: float, vg: float):
    if vf > STRICT_GAP or vg < -STRICT_GAP:
        raise PostconditionError(
            f"glue precondition f-h <= 0 <= g-h fails at {x.tolist()}: "
            f"[{vf:.3e}, {vg:.3e}]"
        )
    if vg - vf > STRICT_GAP and not (vf < 0.0 < vg):
        raise PostconditionError(
            f"glue strictness fails at {x.tolist()}: [{vf:.3e}, {vg:.3e}]"
        )


def _zero(x) -> float:
    return 0.0


def equalizer_glue(f, g, U: PointwiseRegion, h_prev=_zero, grid: Grid | None = None):
    """Zero function on E∖U glued with the common value on X = {f = g} ∩ U.

    ``h_prev`` (the extension of the partial answer from E∖U) is
    subtracted first; the preconditions, f - h_prev <= 0 <= g - h_prev on
    E∖U, strictly where the gap is positive, are checked point by point
    on ``grid`` when one is supplied.  Returns (h2 on (E∖U) ∪ X, X).
    """
    f1 = add(f, negate(h_prev))
    g1 = add(g, negate(h_prev))

    X = PointwiseRegion(
        lambda x: U(x) and abs(f1(x) - g1(x)) <= EQUALITY_TOL,
        f"equality locus in {U.label or 'U'}",
    )

    if grid is not None:
        for x in grid.points:
            if not U(x):
                check_glue_point(x, f1(x), g1(x))

    def rule(x):
        if not U(x):
            return 0.0
        if X(x):
            return f1(x)
        raise UncoveredPointError(f"{np.asarray(x).tolist()} is outside (E∖U) ∪ X")

    return rule, X


def interior_adjust(f, g, V: PointwiseRegion, Z1: PointwiseRegion, Z2: PointwiseRegion,
                    eta1, eta2):
    """The strictly-inside nudge on S = Z1 ∪ Z2 ∪ (E∖V): zero off V,
    min(f + eta1, midpoint) on Z1, max(g - eta2, midpoint) on Z2."""

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

    return rule


def damp_to_safe(h5, f, g, V: PointwiseRegion, Z1: PointwiseRegion, Z2: PointwiseRegion):
    """Final glue: h5 on S, delta * h5 on V, with delta the ratio of the
    hinges phi_W = (min(h5-f, g-h5))⁺ and phi_W + phi_B, phi_B =
    (min(-f, g))⁺.  Returns (h, delta, W)."""
    S = region_or(Z1, Z2, region_not(V))
    W = PointwiseRegion(
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

    def h_rule(x):
        if S(x):
            return h5(x)
        return delta_rule(x) * h5(x)

    return h_rule, delta_rule, W


@dataclass(frozen=True)
class PointwiseLevel:
    """One level of a trace as per-point functions and regions."""

    stratum: str
    kind: str  # "base" or "glue"
    total: Callable
    f_level: Callable
    g_level: Callable
    h0: Callable | None = None
    h1: Callable | None = None
    h2: Callable | None = None
    h3: Callable | None = None
    h4: Callable | None = None
    h5: Callable | None = None
    eta1: Callable | None = None
    eta2: Callable | None = None
    delta: Callable | None = None
    regions: dict = dc_field(default_factory=dict)


def glue_level(f, g, stratum, U, h1, h3, h5, eta1, eta2) -> PointwiseLevel:
    """A glue level's functions and regions from the compressed envelopes
    and the level's extensions and distance fields."""
    h2, X = equalizer_glue(f, g, U, h_prev=h1)
    f2 = add(add(f, negate(h1)), negate(h3))
    g2 = add(add(g, negate(h1)), negate(h3))
    V = PointwiseRegion(lambda x: U(x) and not X(x), f"{U.label or 'U'} minus equality locus")
    Z1 = PointwiseRegion(lambda x: f2(x) >= 0.0, "floor has caught up (f2 >= 0)")
    Z2 = PointwiseRegion(lambda x: g2(x) <= 0.0, "ceiling has caught up (g2 <= 0)")
    h4 = interior_adjust(f2, g2, V, Z1, Z2, eta1, eta2)
    h_glued, delta, W = damp_to_safe(h5, f2, g2, V, Z1, Z2)
    S = region_or(Z1, Z2, region_not(V))
    return PointwiseLevel(
        stratum=stratum,
        kind="glue",
        total=add(add(h_glued, h3), h1),
        f_level=f2,
        g_level=g2,
        h1=h1, h2=h2, h3=h3, h4=h4, h5=h5,
        eta1=eta1, eta2=eta2, delta=delta,
        regions={"U": U, "X": X, "V": V, "Z1": Z1, "Z2": Z2, "S": S, "W": W},
    )


def pointwise_levels(trace) -> list[PointwiseLevel]:
    """Every level of ``trace``, innermost first, as per-point functions
    built by the stage operators around what each pass baked."""
    # the envelopes, the pass's region and its baked fields, each read
    # once at a point
    f, g = once_per_point(trace.f_compressed), once_per_point(trace.g_compressed)
    out = []
    for level in trace.levels:
        if level.kind == "base":
            h0 = base_midpoint(f, g, trace.construction_grid.domain)
            out.append(PointwiseLevel(level.stratum, "base", h0, f, g, h0=h0))
            continue
        p = level.arrays
        U = PointwiseRegion(once_per_point(p.U), p.U.label)
        baked = (once_per_point(v) for v in (p.h1, p.h3, p.h5, p.eta1, p.eta2))
        out.append(glue_level(f, g, level.stratum, U, *baked))
    return out


def pointwise_selection(levels: list[PointwiseLevel]) -> Callable:
    """The selection h from the outer level's total: clamped a strictness
    margin inside [-1, 1] and decompressed, one point at a time."""
    h_c = levels[-1].total
    lo = -1.0 + STRICTNESS_MARGIN
    hi = 1.0 - STRICTNESS_MARGIN
    return lambda x: unsquash(min(max(h_c(x), lo), hi))
