"""Command-line driver.

Subcommands::

    convsel select-michael --spec problem.json [--grid N] [--out h.csv] ...
    convsel select-sandwich --spec problem.json ...
    convsel lns             --spec problem.json ...
    convsel envelopes       --spec problem.json ...
    convsel verify          --spec problem.json ...

Shared flags: ``--grid`` (points per axis; default 129 in 1D, 17
otherwise), ``--refine`` (grid halvings for the modulus-ratio report,
default 2), ``--seed`` (probe RNG), ``--out`` (CSV of the computed
field), ``--report`` (JSON audit report), ``--tol`` (membership / bound
tolerance, default 1e-7).

CSV output is byte-deterministic: header ``x1,...,xn,h1,...,hm``
(``f,g`` for envelopes), one row per grid point in grid order, every
number rendered with ``%.17g``, ``\\n`` line endings.

Reports are strict JSON (RFC 8259) with sorted keys; a number with no
JSON form is written as the string ``inf``, ``-inf`` or ``nan``.

Exit status: 0 when every invariant checked out, 2 when a selection was
attempted but an audit or postcondition failed, 1 for input problems
(unreadable file, schema violation, bad flags, a domain point that no
piece covers, an ``--out`` or ``--report`` path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from convsel.errors import ConvselError, SpecValidationError, UncoveredPointError
from convsel.fields import (
    DEFAULT_SEED,
    Grid,
    Violation,
    default_per_axis,
    grid_size,
    grid_values,
    modulus_ratios,
    pymax,
    semicontinuity_audit,
)
from convsel.maps import envelopes, hypothesis_audits
from convsel.sandwich import region_audit, sandwich_select
from convsel.selection import boundary_decay_audit, lns_field, michael_select
from convsel.specio.loader import ProblemSpec, load_spec, uncovered

MODULUS_RATIO_BOUND = 0.75

#: The most points a run may ask of its largest grid: the ``--grid`` grid,
#: or its ``--refine``-th refinement for the two selections.
MAX_GRID_POINTS = 2**22


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here
    reserves 2 for failed audits, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--spec", required=True, help="problem JSON file")
    sub.add_argument(
        "--grid", type=int, default=None,
        help="grid points per axis (default: 129 in 1D, 17 otherwise)",
    )
    sub.add_argument(
        "--refine", type=int, default=2,
        help="grid halvings for the modulus-ratio report (default 2)",
    )
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="probe RNG seed")
    sub.add_argument("--out", default=None, help="write the field as CSV here")
    sub.add_argument("--report", default=None, help="write the JSON audit report here")
    sub.add_argument(
        "--tol", type=float, default=1e-7,
        help="membership / bound tolerance (default 1e-7)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="convsel", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("select-michael", _cmd_michael, "stratified selection of a set-valued map"),
        ("select-sandwich", _cmd_sandwich, "continuous function between the envelopes"),
        ("lns", _cmd_lns, "pointwise least-norm selection (no continuity glue)"),
        ("envelopes", _cmd_envelopes, "lower/upper envelopes of a map into R^1"),
        ("verify", _cmd_verify, "run the audits without selecting"),
    ):
        sub = subs.add_parser(name, help=blurb)
        _add_common(sub)
        sub.set_defaults(func=fn)
    return parser


# --- shared plumbing --------------------------------------------------------


class _Unwritable(Exception):
    """An ``--out`` or ``--report`` path that cannot be written; exit 1."""


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_csv(path: str, grid: Grid, values, labels):
    """One row per grid point: its coordinates, then its row of ``values``."""
    values = np.asarray(values, dtype=float).reshape(len(grid), len(labels))
    table = np.column_stack((grid.points, values))
    header = ",".join([f"x{i + 1}" for i in range(grid.domain.ambient_dim)] + labels)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    _write(path, header + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def _strict(obj):
    """``obj`` with each non-finite float as the string ``inf``, ``-inf`` or
    ``nan``, which strict JSON (RFC 8259) has no number for."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strict(v) for v in obj]
    return obj


def _write_report(args, payload: dict):
    if args.report:
        text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
        _write(args.report, text + "\n")


def _labels(width: int) -> list[str]:
    return [f"h{i + 1}" for i in range(width)]


def _violation_dict(v: Violation) -> dict:
    out = {"x": list(v.x), "deficit": v.deficit, "message": v.message}
    if v.neighbor is not None:
        out["neighbor"] = list(v.neighbor)
    if v.probe is not None:
        out["probe"] = list(v.probe)
    return out


def _entry(name: str, passed: bool, violations=(), notes=(), **measured) -> dict:
    """One invariant of the report: its first ten violations, its notes and
    what it measured (``checked``, ``eps``, ``ratios``, ...)."""
    return {
        "name": name,
        "passed": passed,
        **measured,
        "violations": [_violation_dict(v) for v in violations[:10]],
        "notes": list(notes),
    }


def _report_entry(report, name: str | None = None) -> dict:
    return _entry(
        name or report.kind, report.passed, report.violations, report.notes,
        checked=report.checked, eps=report.eps,
    )


def _ratio_entry(ratios: list, halvings: int) -> dict:
    """The modulus-ratio invariant: it passes when every ratio is null or
    at most the bound, so a NaN ratio fails it wherever it sits."""
    passed = all(r is None or r <= MODULUS_RATIO_BOUND for r in ratios)
    notes = ["ratio of largest grid jump across successive halvings; "
             "null marks an already-flat field"]
    if len(ratios) < halvings:
        notes.append(f"refinement stopped after {len(ratios)} of {halvings} halvings: "
                     "the next halving adds no grid point")
    return _entry(
        "modulus-ratio", passed,
        notes=notes, ratios=ratios, bound=MODULUS_RATIO_BOUND,
    )


def _membership_entry(map_, values, grid: Grid, tol: float) -> dict:
    """Distance from each grid point's value of h (a row of ``values``) to T(x)."""
    values = np.asarray(values, dtype=float).reshape(len(grid), -1)
    dists = map_.evaluate_many(grid.points).distance(values)
    i = int(np.argmax(dists))  # the first point of the largest distance
    worst = float(dists[i])
    passed = worst <= tol
    witness = [] if passed else [Violation(grid.points[i], worst - tol,
                                           message="h(x) sits outside T(x)")]
    return _entry("membership", passed, witness, checked=len(grid),
                  worst_distance=worst, tol=tol)


def _envelope_entries(grid: Grid, vf, vg, vh) -> list[dict]:
    """The between-envelopes and strictly-between checks of h against the
    envelopes, from their values on the grid."""
    slack = 1e-9
    strict_gap = 1e-3
    err = pymax(vf - slack - vh, vh - vg - slack)
    i = int(np.argmax(err))  # the first point of the worst excess
    bound_witness = []
    if err[i] > 0.0:
        bound_witness = [Violation(grid.points[i], float(err[i]),
                                   message="h leaves [f - 1e-9, g + 1e-9]")]
    strict_witness = []
    gapped = np.flatnonzero(vg - vf > strict_gap)
    if gapped.size:
        err = pymax(vf - vh, vh - vg)[gapped][::-1]  # must be strictly negative
        j = int(np.argmax(err))  # the last of the worst, as a sweep keeping ties would pick
        if err[j] >= 0.0:
            strict_witness = [Violation(
                grid.points[gapped[-1 - j]], float(err[j]),
                message=f"h touches an envelope where g - f > {strict_gap}",
            )]
    return [
        _entry("between-envelopes", not bound_witness, bound_witness, checked=len(grid)),
        _entry("strictly-between", not strict_witness, strict_witness, checked=len(grid)),
    ]


def _finish(args, spec: ProblemSpec, entries: list[dict]) -> int:
    passed = all(e["passed"] for e in entries)
    _write_report(args, {
        "command": args.command,
        "spec": spec.path or None,
        "grid": args.grid,
        "seed": args.seed,
        "tol": args.tol,
        "invariants": entries,
        "passed": passed,
    })
    for e in entries:
        status = "pass" if e["passed"] else "FAIL"
        print(f"[{status}] {e['name']}")
    print("ok" if passed else "violations found")
    return 0 if passed else 2


def _abort(args, spec: ProblemSpec, stage: str, exc: Exception) -> int:
    if isinstance(exc, UncoveredPointError):  # an input problem, as at load
        print(f"error: {uncovered(exc.x)}", file=sys.stderr)
        return 1
    print(f"{stage}: {exc}", file=sys.stderr)
    _write_report(args, {
        "command": args.command,
        "spec": spec.path or None,
        "passed": False,
        "error": {"stage": stage, "type": type(exc).__name__, "message": str(exc)},
    })
    return 2


# --- subcommands ------------------------------------------------------------


def _cmd_michael(spec: ProblemSpec, grid: Grid, args) -> int:
    try:
        h, trace = michael_select(
            spec.map, spec.stratification, resolution=grid.per_axis, seed=args.seed
        )
    except ConvselError as exc:
        return _abort(args, spec, "selection", exc)
    try:
        values = grid_values(h, grid)
        if args.out:
            _write_csv(args.out, grid, values, _labels(spec.output_dim))
        entries = [
            _membership_entry(spec.map, values, grid, args.tol),
            _report_entry(boundary_decay_audit(trace, grid)),
            _ratio_entry(modulus_ratios(
                h, spec.domain, grid.per_axis, halvings=args.refine, values=values
            ), args.refine),
        ]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_sandwich(spec: ProblemSpec, grid: Grid, args) -> int:
    try:
        f, g = envelopes(spec.map)
        h, trace = sandwich_select(
            f, g, spec.stratification, resolution=grid.per_axis
        )
    except ConvselError as exc:
        return _abort(args, spec, "selection", exc)
    try:
        vh = trace.h_values  # the construction grid is the output grid
        if args.out:
            _write_csv(args.out, grid, vh, _labels(1))
        vf, vg = f.many(grid.points), g.many(grid.points)
        entries = [
            *_envelope_entries(grid, vf, vg, vh),
            _report_entry(region_audit(trace, grid)),
            _ratio_entry(modulus_ratios(
                h, spec.domain, grid.per_axis, halvings=args.refine, values=vh
            ), args.refine),
        ]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_lns(spec: ProblemSpec, grid: Grid, args) -> int:
    h = lns_field(spec.map)
    try:
        values = grid_values(h, grid)
        if args.out:
            _write_csv(args.out, grid, values, _labels(spec.output_dim))
        entries = [_membership_entry(spec.map, values, grid, args.tol)]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_envelopes(spec: ProblemSpec, grid: Grid, args) -> int:
    f, g = envelopes(spec.map)
    try:
        if args.out:
            values = np.column_stack([f.many(grid.points), g.many(grid.points)])
            _write_csv(args.out, grid, values, ["f", "g"])
        entries = [
            _report_entry(semicontinuity_audit(f, grid), f"floor-{f.tag}-semicontinuity"),
            _report_entry(semicontinuity_audit(g, grid), f"ceiling-{g.tag}-semicontinuity"),
        ]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_verify(spec: ProblemSpec, grid: Grid, args) -> int:
    entries = []
    try:
        if not spec.map.declared_lsc:
            entries.append(_entry(
                "lsc", True, notes=["map not declared lower semicontinuous; skipped"],
                checked=0,
            ))
        entries.extend(
            _report_entry(rep)
            for rep in hypothesis_audits(spec.map, spec.stratification, grid, seed=args.seed)
        )
        if spec.output_dim == 1:
            f, g = envelopes(spec.map)
            for fld, label in ((f, "floor"), (g, "ceiling")):
                entries.append(_report_entry(
                    semicontinuity_audit(fld, grid), f"{label}-{fld.tag}-semicontinuity"
                ))
    except ConvselError as exc:
        return _abort(args, spec, "audit", exc)
    return _finish(args, spec, entries)


# --- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = load_spec(args.spec)
        for bad, message in (
            (args.grid is not None and args.grid < 2, "--grid must be at least 2"),
            (args.refine < 0, "--refine must be non-negative"),
            (args.seed < 0, "--seed must be non-negative"),
            (not 0.0 <= args.tol < math.inf, "--tol must be finite and non-negative"),
            (args.command == "envelopes" and spec.output_dim != 1,
             "envelopes need output_dim 1"),
        ):
            if bad:
                raise SpecValidationError(message)
        per_axis = args.grid or default_per_axis(spec.ambient_dim)
        halvings = args.refine if args.command in ("select-michael", "select-sandwich") else 0
        size = grid_size(spec.domain, per_axis, min(halvings, 64))
        if size > MAX_GRID_POINTS:
            # past 64 halvings a box of nonzero width has more than 2^64 points
            shown = size if size <= 2**64 else "more than 2^64"
            raise SpecValidationError(
                f"--grid and --refine ask for a grid of {shown} points, "
                f"more than {MAX_GRID_POINTS}"
            )
    except ConvselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    grid = Grid(spec.domain, per_axis)
    try:
        return args.func(spec, grid, args)
    except _Unwritable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
