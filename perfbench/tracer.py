"""Outside-in tracer: wraps public names of ``convsel`` where they are looked up.

Nothing under ``src/`` is edited.  Class methods are patched on the
class; a module-level function is replaced in every ``convsel`` module
that holds it by name (``tietze_extend`` in ``selection`` and
``sandwich``, ``lsc_audit`` in ``selection``, ``cli`` and ``maps``, and so
on), so calls made through any of those names are seen.

Two kinds of wrapper keep the overhead bounded:

* a *span* times a call.  Spans nest on a stack, so each call's self time
  (its duration minus its children's) is charged to its module; a
  metric's busy time counts only the outermost open call of its group,
  so recursion and nesting (``continuity_audit`` calling ``lsc_audit``)
  are not counted twice.  Coarse spans (audits, constructions, CLI
  stages) are also kept as records ``(name, start, end, parent)`` and
  handed to the caller when the run ends;
* a *counter* only counts, for calls made once per point or per
  expression node (``expr.evaluate``, ``Region.__call__``, field
  ``__call__``), where timing each call would cost more than the call.

Times are ``time.perf_counter`` seconds.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _rows(Z) -> int:
    shape = getattr(Z, "shape", None)
    if shape is None:
        return len(Z)
    return int(shape[0]) if len(shape) > 1 else 1


_POLYTOPES = ("geometry.polytopes_built", lambda args: 1)
_PROJECT_ROWS = ("geometry.project_rows", lambda args: _rows(args[1]))
_DIST_PAIRS = (
    "urysohn.dist_pairs",
    lambda args: _rows(args[1]) * int(args[0]._cloud.shape[0]),
)
_MODULUS_POINTS = ("fields.modulus_points", lambda args: len(args[1]))

# (module, owner, attribute, metric group, coarse?, extra count) for every
# span.  ``owner`` is a class name inside the module, or None for a
# function; the extra count is (counter, args -> amount) or None.
SPANS = (
    ("convsel.geometry", None, "linprog", "geometry.lp", False, None),
    ("convsel.geometry", "Interval", "__init__", "geometry.body_build", False, None),
    ("convsel.geometry", "Ball", "__init__", "geometry.body_build", False, None),
    ("convsel.geometry", "HPolytope", "__init__", "geometry.body_build", False, _POLYTOPES),
    ("convsel.geometry", "Interval", "project_many", "geometry.project", False, _PROJECT_ROWS),
    ("convsel.geometry", "Ball", "project_many", "geometry.project", False, _PROJECT_ROWS),
    ("convsel.geometry", "HPolytope", "project_many", "geometry.project", False, _PROJECT_ROWS),
    ("convsel.geometry", "Interval", "coord_bounds", "geometry.bound", False, None),
    ("convsel.geometry", "Ball", "coord_bounds", "geometry.bound", False, None),
    ("convsel.geometry", "HPolytope", "coord_bounds", "geometry.bound", False, None),
    ("convsel.maps", "SetValuedMap", "evaluate", "maps.map_eval", False, None),
    ("convsel.maps", None, "lsc_audit", "maps.audit", True, None),
    ("convsel.maps", None, "continuity_audit", "maps.audit", True, None),
    ("convsel.maps", None, "stratification_audit", "maps.audit", True, None),
    ("convsel.fields", None, "modulus_ratios", "fields.modulus", True, None),
    ("convsel.fields", None, "continuity_modulus", "fields.continuity_modulus", True,
     _MODULUS_POINTS),
    ("convsel.fields", None, "semicontinuity_audit", "fields.semicontinuity_audit", True,
     None),
    ("convsel.fields", "Grid", "__init__", "fields.grid_build", True, None),
    ("convsel.urysohn", None, "tietze_extend", "urysohn.tietze_build", True, None),
    ("convsel.urysohn", "ClosedSet", "dist_many", "urysohn.dist", False, _DIST_PAIRS),
    ("convsel.sandwich", None, "sandwich_select", "sandwich.select", True, None),
    ("convsel.sandwich", None, "region_audit", "sandwich.region_audit", True, None),
    ("convsel.selection", None, "michael_select", "selection.select", True, None),
    ("convsel.selection", None, "boundary_decay_audit", "selection.decay_audit", True,
     None),
    ("convsel.specio.loader", None, "load_spec", "specio.load", True, None),
    ("convsel.specio.cli", None, "main", "specio.cli", True, None),
)

# (module, owner, attribute, counter) for calls made once per point or node.
COUNTERS = (
    ("convsel.specio.expr", None, "evaluate", "specio.expr_nodes"),
    ("convsel.maps", "Region", "__call__", "maps.region_tests"),
    ("convsel.fields", "ScalarField", "__call__", "fields.field_calls"),
    ("convsel.fields", "VectorField", "__call__", "fields.field_calls"),
)

# Self time is charged to the module that holds a span's name, with
# ``specio.loader`` and ``specio.cli`` together as ``specio``; ``linprog``
# is listed under geometry, the LP layer, though maps looks it up too.
LAYERS = ("geometry", "maps", "fields", "urysohn", "sandwich", "selection", "specio")


class Tracer:
    """Call statistics and coarse spans for one process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.group_self = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._depth = defaultdict(int)

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name: str, group: str, layer: str, coarse: bool, extra):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        calls, busy = self.calls, self.busy
        group_self, layer_self, spans = self.group_self, self.layer_self, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                calls[extra[0]] += extra[1](args)
            # a frame carries the index of its nearest coarse span record
            record = stack[-1][1] if stack else -1
            if coarse:
                spans.append([name, 0.0, 0.0, record])
                record = len(spans) - 1
            frame = [0.0, record]
            stack.append(frame)
            outer = depth[group] == 0
            depth[group] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                depth[group] -= 1
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                calls[group] += 1
                if outer:
                    busy[group] += elapsed
                group_self[group] += own
                layer_self[layer] += own
                if coarse:
                    spans[record][1] = start
                    spans[record][2] = end

        return wrapper

    def _counter(self, fn, key: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every listed name in all loaded ``convsel`` modules."""
        for module, owner, attr, group, coarse, extra in SPANS:
            name = f"{owner}.{attr}" if owner else attr
            layer = module.split(".")[1]
            self._patch(
                module, owner, attr,
                lambda fn, name=name, group=group, layer=layer, coarse=coarse,
                extra=extra: self._span(fn, name, group, layer, coarse, extra),
            )
        for module, owner, attr, key in COUNTERS:
            self._patch(module, owner, attr, lambda fn, key=key: self._counter(fn, key))

    @staticmethod
    def _patch(module: str, owner, attr: str, make):
        mod = sys.modules[module]
        if owner is not None:
            cls = getattr(mod, owner)
            setattr(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name, other in list(sys.modules.items()):
            if name == "convsel" or name.startswith("convsel."):
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        c, b = self.calls, self.busy
        out = {
            "geometry.lp_calls": c["geometry.lp"],
            "geometry.lp_s": b["geometry.lp"],
            "geometry.bodies_built": c["geometry.body_build"],
            "geometry.polytopes_built": c["geometry.polytopes_built"],
            "geometry.body_build_s": b["geometry.body_build"],
            "geometry.project_calls": c["geometry.project"],
            "geometry.project_rows": c["geometry.project_rows"],
            "geometry.project_s": b["geometry.project"],
            "geometry.bound_calls": c["geometry.bound"],
            "geometry.bound_s": b["geometry.bound"],
            "specio.expr_nodes": c["specio.expr_nodes"],
            "specio.load_s": b["specio.load"],
            "specio.cli_self_s": self.group_self["specio.cli"],
            "maps.map_evals": c["maps.map_eval"],
            "maps.map_eval_s": b["maps.map_eval"],
            "maps.region_tests": c["maps.region_tests"],
            "maps.audit_s": b["maps.audit"],
            "fields.field_calls": c["fields.field_calls"],
            "fields.modulus_s": b["fields.modulus"],
            "fields.modulus_points": c["fields.modulus_points"],
            "fields.semicontinuity_audit_s": b["fields.semicontinuity_audit"],
            "fields.grid_build_s": b["fields.grid_build"],
            "urysohn.tietze_builds": c["urysohn.tietze_build"],
            "urysohn.tietze_build_s": b["urysohn.tietze_build"],
            "urysohn.dist_queries": c["urysohn.dist"],
            "urysohn.dist_pairs": c["urysohn.dist_pairs"],
            "urysohn.dist_s": b["urysohn.dist"],
            "sandwich.select_s": b["sandwich.select"],
            "sandwich.region_audit_s": b["sandwich.region_audit"],
            "selection.select_s": b["selection.select"],
            "selection.decay_audit_s": b["selection.decay_audit"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out
