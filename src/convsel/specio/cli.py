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

Exit status: 0 when every invariant checked out, 2 when a selection was
attempted but an audit or postcondition failed, 1 for input problems
(unreadable file, schema violation, bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from convsel.errors import ConvselError, SpecValidationError
from convsel.fields import (
    DEFAULT_SEED,
    Grid,
    default_per_axis,
    grid_values,
    modulus_ratios,
    pymax,
    semicontinuity_audit,
)
from convsel.maps import envelopes, hypothesis_audits
from convsel.sandwich import region_audit, sandwich_select
from convsel.selection import boundary_decay_audit, lns_field, michael_select
from convsel.specio.loader import ProblemSpec, load_spec

MODULUS_RATIO_BOUND = 0.75


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


def _eval_grid(spec: ProblemSpec, args) -> Grid:
    per_axis = args.grid
    if per_axis is None:
        per_axis = default_per_axis(spec.ambient_dim)
    if per_axis < 2:
        raise SpecValidationError("--grid must be at least 2")
    return Grid(spec.domain, per_axis)


def _write_csv(path: str, grid: Grid, values, labels):
    """One row per grid point: its coordinates, then its row of ``values``."""
    values = np.asarray(values, dtype=float).reshape(len(grid), len(labels))
    lines = [",".join([f"x{i + 1}" for i in range(grid.domain.ambient_dim)] + labels)]
    for row in np.column_stack((grid.points, values)).tolist():
        lines.append(",".join("%.17g" % c for c in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _labels(width: int) -> list[str]:
    return [f"h{i + 1}" for i in range(width)]


def _violation_dict(v) -> dict:
    out = {"x": list(v.x), "deficit": v.deficit, "message": v.message}
    if v.neighbor is not None:
        out["neighbor"] = list(v.neighbor)
    if v.probe is not None:
        out["probe"] = list(v.probe)
    return out


def _report_entry(report) -> dict:
    return {
        "name": report.kind,
        "passed": report.passed,
        "checked": report.checked,
        "eps": report.eps,
        "violations": [_violation_dict(v) for v in report.violations[:10]],
        "notes": list(report.notes),
    }


def _ratio_entry(ratios: list) -> dict:
    worst = max((r for r in ratios if r is not None), default=None)
    passed = worst is None or worst <= MODULUS_RATIO_BOUND
    return {
        "name": "modulus-ratio",
        "passed": passed,
        "ratios": ratios,
        "bound": MODULUS_RATIO_BOUND,
        "violations": [],
        "notes": [
            "ratio of largest grid jump across successive halvings; "
            "null marks an already-flat field"
        ],
    }


def _membership_entry(map_, values, grid: Grid, tol: float) -> dict:
    """Distance from each grid point's value of h (a row of ``values``) to T(x)."""
    worst = 0.0
    witness = None
    values = np.asarray(values, dtype=float).reshape(len(grid), -1)
    dists = map_.evaluate_many(grid.points).distance(values)
    for x, d in zip(grid.points, dists.tolist()):
        if d > worst:
            worst, witness = d, x
    passed = worst <= tol
    out = {
        "name": "membership",
        "passed": passed,
        "checked": len(grid),
        "worst_distance": worst,
        "tol": tol,
        "violations": [],
        "notes": [],
    }
    if not passed and witness is not None:
        out["violations"] = [
            {
                "x": list(witness),
                "deficit": worst - tol,
                "message": "h(x) sits outside T(x)",
            }
        ]
    return out


def _envelope_entries(grid: Grid, vf, vg, vh) -> list[dict]:
    """The between-envelopes and strictly-between checks of h against the
    envelopes, from their values on the grid."""
    slack = 1e-9
    strict_gap = 1e-3
    err = pymax(vf - slack - vh, vh - vg - slack)
    worst_bound = 0.0
    bound_witness = None
    if err.max() > 0.0:
        i = int(np.argmax(err))  # the first point of the worst excess
        worst_bound, bound_witness = float(err[i]), grid.points[i]
    worst_strict = -np.inf  # stays -inf when no point has a real gap
    strict_witness = None
    gapped = np.flatnonzero(vg - vf > strict_gap)
    if gapped.size:
        err = pymax(vf - vh, vh - vg)[gapped]  # must be strictly negative
        worst_strict = float(err.max())
        # the last point of the worst, as a sweep keeping ties would pick
        strict_witness = grid.points[gapped[np.flatnonzero(err == worst_strict)[-1]]]
    bounds_entry = {
        "name": "between-envelopes",
        "passed": worst_bound <= 0.0,
        "checked": len(grid),
        "violations": []
        if worst_bound <= 0.0
        else [
            {
                "x": list(bound_witness),
                "deficit": worst_bound,
                "message": "h leaves [f - 1e-9, g + 1e-9]",
            }
        ],
        "notes": [],
    }
    strict_entry = {
        "name": "strictly-between",
        "passed": worst_strict < 0.0,
        "checked": len(grid),
        "violations": []
        if worst_strict < 0.0
        else [
            {
                "x": list(strict_witness) if strict_witness is not None else [],
                "deficit": worst_strict,
                "message": f"h touches an envelope where g - f > {strict_gap}",
            }
        ],
        "notes": [],
    }
    return [bounds_entry, strict_entry]


def _finish(args, spec: ProblemSpec, entries: list[dict], extra=None) -> int:
    passed = all(e["passed"] for e in entries)
    payload = {
        "command": args.command,
        "spec": spec.path or None,
        "grid": args.grid,
        "seed": args.seed,
        "tol": args.tol,
        "invariants": entries,
        "passed": passed,
    }
    if extra:
        payload.update(extra)
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for e in entries:
        status = "pass" if e["passed"] else "FAIL"
        print(f"[{status}] {e['name']}")
    print("ok" if passed else "violations found")
    return 0 if passed else 2


def _abort(args, spec: ProblemSpec, stage: str, exc: Exception) -> int:
    print(f"{stage}: {exc}", file=sys.stderr)
    if args.report:
        payload = {
            "command": args.command,
            "spec": spec.path or None,
            "passed": False,
            "error": {"stage": stage, "type": type(exc).__name__, "message": str(exc)},
        }
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 2


# --- subcommands ------------------------------------------------------------


def _cmd_michael(spec: ProblemSpec, args) -> int:
    grid = _eval_grid(spec, args)
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
            )),
        ]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_sandwich(spec: ProblemSpec, args) -> int:
    grid = _eval_grid(spec, args)
    try:
        f, g = envelopes(spec.map)
        h, trace = sandwich_select(
            f, g, spec.stratification, resolution=grid.per_axis
        )
    except ConvselError as exc:
        return _abort(args, spec, "selection", exc)
    try:
        vh = h.many(grid.points)
        if args.out:
            _write_csv(args.out, grid, vh, _labels(1))
        vf, vg = f.many(grid.points), g.many(grid.points)
        entries = [
            *_envelope_entries(grid, vf, vg, vh),
            _report_entry(region_audit(trace, grid)),
            _ratio_entry(modulus_ratios(
                h, spec.domain, grid.per_axis, halvings=args.refine, values=vh
            )),
        ]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_lns(spec: ProblemSpec, args) -> int:
    grid = _eval_grid(spec, args)
    h = lns_field(spec.map)
    try:
        values = grid_values(h, grid)
        if args.out:
            _write_csv(args.out, grid, values, _labels(spec.output_dim))
        entries = [_membership_entry(spec.map, values, grid, args.tol)]
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_envelopes(spec: ProblemSpec, args) -> int:
    if spec.output_dim != 1:
        print("error: envelopes need output_dim 1", file=sys.stderr)
        return 1
    grid = _eval_grid(spec, args)
    f, g = envelopes(spec.map)
    try:
        if args.out:
            values = np.column_stack([f.many(grid.points), g.many(grid.points)])
            _write_csv(args.out, grid, values, ["f", "g"])
        entries = [
            _report_entry(semicontinuity_audit(f, grid)),
            _report_entry(semicontinuity_audit(g, grid)),
        ]
        entries[0]["name"] = f"floor-{f.tag}-semicontinuity"
        entries[1]["name"] = f"ceiling-{g.tag}-semicontinuity"
    except ConvselError as exc:
        return _abort(args, spec, "evaluation", exc)
    return _finish(args, spec, entries)


def _cmd_verify(spec: ProblemSpec, args) -> int:
    grid = _eval_grid(spec, args)
    entries = []
    try:
        if not spec.map.declared_lsc:
            entries.append(
                {
                    "name": "lsc",
                    "passed": True,
                    "checked": 0,
                    "violations": [],
                    "notes": ["map not declared lower semicontinuous; skipped"],
                }
            )
        entries.extend(
            _report_entry(rep)
            for rep in hypothesis_audits(spec.map, spec.stratification, grid, seed=args.seed)
        )
        if spec.output_dim == 1:
            f, g = envelopes(spec.map)
            for fld, label in ((f, "floor"), (g, "ceiling")):
                rep = semicontinuity_audit(fld, grid)
                entry = _report_entry(rep)
                entry["name"] = f"{label}-{fld.tag}-semicontinuity"
                entries.append(entry)
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
        if args.grid is not None and args.grid < 2:
            raise SpecValidationError("--grid must be at least 2")
    except ConvselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return args.func(spec, args)


if __name__ == "__main__":
    sys.exit(main())
