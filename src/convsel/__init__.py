"""Continuous selections of convex-valued maps over R^n.

The package computes single-valued continuous functions threading
through set-valued data — least-norm selections glued across a
stratification, and continuous functions squeezed between a lower and
an upper envelope — and audits the hypotheses and the results on grids.
"""

from convsel import errors
from convsel.errors import (
    AuditError,
    ConvselError,
    PostconditionError,
    SpecValidationError,
    StratificationError,
)
from convsel.fields import (
    DEFAULT_SEED,
    AuditReport,
    Domain,
    Grid,
    ScalarField,
    VectorField,
    Violation,
    compress,
    decompress,
    modulus_ratios,
    semicontinuity_audit,
)
from convsel.geometry import (
    Ball,
    BallBatch,
    BodyBatch,
    BodyRows,
    ConvexBody,
    HPolytope,
    Interval,
    IntervalBatch,
)
from convsel.maps import (
    Region,
    SetValuedMap,
    Stratification,
    continuity_audit,
    envelopes,
    graph_sample,
    hypothesis_audits,
    lsc_audit,
    shift,
    stratification_audit,
)
from convsel.sandwich import region_audit, sandwich_select
from convsel.selection import boundary_decay_audit, lns_field, michael_select
from convsel.specio import load_spec
from convsel.urysohn import ClosedSet, dist_to_set, separator, tietze_extend

__all__ = [
    "AuditError",
    "AuditReport",
    "Ball",
    "BallBatch",
    "BodyBatch",
    "BodyRows",
    "ClosedSet",
    "ConvexBody",
    "ConvselError",
    "DEFAULT_SEED",
    "Domain",
    "Grid",
    "HPolytope",
    "Interval",
    "IntervalBatch",
    "PostconditionError",
    "Region",
    "ScalarField",
    "SetValuedMap",
    "SpecValidationError",
    "Stratification",
    "StratificationError",
    "VectorField",
    "Violation",
    "boundary_decay_audit",
    "compress",
    "continuity_audit",
    "decompress",
    "dist_to_set",
    "envelopes",
    "errors",
    "graph_sample",
    "hypothesis_audits",
    "lns_field",
    "load_spec",
    "lsc_audit",
    "michael_select",
    "modulus_ratios",
    "region_audit",
    "sandwich_select",
    "semicontinuity_audit",
    "separator",
    "shift",
    "stratification_audit",
    "tietze_extend",
]
