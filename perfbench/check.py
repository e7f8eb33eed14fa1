"""Correctness checks on one CLI run, independent of ``convsel``.

A run counts as failed on a nonzero exit, on any report invariant with
``passed: false``, on a CSV whose grid is not the requested one, on a
selection outside ``T(x)`` by more than the tolerance (evaluated here from
the generator's coefficients), or, for the default seed, on a CSV that
deviates from the stored reference by more than the tolerance.  Byte
identity with the reference is reported on its own and is not a failure.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("CSV rows differ in width from the header")
    return header, rows


def failed_invariants(report_path: Path) -> list[str]:
    """Names of report invariants that did not pass (empty when all did)."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    bad = [e.get("name", "?") for e in report.get("invariants", []) if not e.get("passed")]
    if not report.get("invariants"):
        bad.append("no invariants in report")
    if report.get("passed") is not True:
        bad.append("report.passed")
    return bad


def _grid(n: int, per_axis: int) -> list[tuple[float, ...]]:
    axis = [-1.0 + 2.0 * i / (per_axis - 1) for i in range(per_axis)]
    if n == 1:
        return [(a,) for a in axis]
    return [(a, b) for a in axis for b in axis]


def _excess(family: str, p: dict, x: tuple, y: list[float]) -> float:
    """How far ``y`` sits outside T(x): <= 0 inside (a scaled residual)."""
    if family == "m_poly":
        r = x[0] ** 2 + x[1] ** 2
        if r > 0:
            b = (-p["a"] + p["k1"] * r, -p["b"] + p["k2"] * r, p["c"] + p["k3"] * r)
        else:
            b = (-p["a"], -p["b"], p["c"])
        return max(-y[0] - b[0], -y[1] - b[1], (y[0] + y[1] - b[2]) / math.sqrt(2.0))
    if family == "m_ball":
        r = x[0] ** 2 + x[1] ** 2
        cx, cy = p["c1"] + p["s1"] * r, p["c2"] + p["s2"] * r
        return math.hypot(y[0] - cx, y[1] - cy) - p["rho"]
    if family == "s_mixed":
        if abs(x[0]) > 0:
            lo = p["alpha"] * x[0] + p["beta"]
            hi = lo + p["w"]
        else:
            lo, hi = p["beta"] + p["u"] * p["w"], p["beta"] + p["v"] * p["w"]
        return max(lo - y[0], y[0] - hi)
    raise ValueError(f"unknown family {family!r}")


def selection_errors(family: str, params: dict, n: int, per_axis: int,
                     header: list[str], rows: list[list[float]], tol: float) -> list[str]:
    """Grid and membership errors of a selection CSV (empty when it is right)."""
    want = [f"x{i + 1}" for i in range(n)] + [f"h{i + 1}" for i in range(len(header) - n)]
    if header != want:
        return [f"header {header} != {want}"]
    grid = _grid(n, per_axis)
    if len(rows) != len(grid):
        return [f"{len(rows)} rows for a grid of {len(grid)} points"]
    errors = []
    worst, witness = -math.inf, None
    for x, row in zip(grid, rows):
        if any(abs(a - b) > 1e-12 for a, b in zip(x, row[:n])):
            return [f"grid point {row[:n]} != {list(x)}"]
        y = row[n:]
        if not all(math.isfinite(v) for v in y):
            return [f"non-finite value at {list(x)}"]
        e = _excess(family, params, x, y)
        if e > worst:
            worst, witness = e, x
    if worst > tol:
        errors.append(f"h leaves T(x) by {worst:.3e} at {list(witness)}")
    return errors


def reference_bytes(workload: str) -> bytes:
    return gzip.decompress((REFERENCE_DIR / f"{workload}.csv.gz").read_bytes())


def compare_reference(out: bytes, ref: bytes) -> tuple[float, bool]:
    """(largest absolute deviation, byte identity) of a CSV from the reference."""
    if out == ref:
        return 0.0, True
    h_out, r_out = parse_csv(out)
    h_ref, r_ref = parse_csv(ref)
    if h_out != h_ref or len(r_out) != len(r_ref):
        return math.inf, False
    worst = 0.0
    for a, b in zip(r_out, r_ref):
        for u, v in zip(a, b):
            worst = max(worst, abs(u - v))
    return worst, False
