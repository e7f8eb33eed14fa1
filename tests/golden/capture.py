"""Golden bytes of a CLI command on the spec fixtures.

    python tests/golden/capture.py <command> <grid> [<grid> ...]

runs ``convsel <command>`` from this checkout on every fixture of
``tests/specs`` (those into R^1 for ``envelopes`` and ``verify``) at each
grid, and on each spec of :data:`HOLES` at grid 17, and writes the exit code,
the CSV and report sha256, stdout and stderr of every run to
``tests/golden/<command>.json`` (dashes as underscores).  The golden tests
call :func:`golden_runs` the same way and compare with that file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE.parent / "specs"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from convsel.specio.cli import main  # noqa: E402

# 1/32 is not on the --grid 17 lattice but is on its second halving, so the
# selection succeeds and only the modulus-ratio sweep meets the bad point
HOLE_AT_ONE_32ND = {
    "ambient_dim": 1,
    "output_dim": 1,
    "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
    "pieces": [
        {"region": [], "body": {"interval": {
            "lo": "(x1 - 0.03125)/(x1 - 0.03125) - 2", "hi": "1"}}}
    ],
    "tags": {"declared_lsc": True, "declared_continuous": True},
}

# the same hole made by ``^``: the floor's error names the base at 1/32
POW_HOLE_AT_ONE_32ND = {
    **HOLE_AT_ONE_32ND,
    "pieces": [
        {"region": [], "body": {"interval": {
            "lo": "0*(x1 - 0.03125)^-1 - 2", "hi": "1"}}}
    ],
}

#: Specs captured at grid 17 besides the fixtures, by file stem.
HOLES = {"hole_at_one_32nd": HOLE_AT_ONE_32ND, "pow_hole_at_one_32nd": POW_HOLE_AT_ONE_32ND}

#: Commands that read the envelopes, which exist for maps into R^1 only.
ENVELOPE_COMMANDS = ("envelopes", "verify")


def fixture_names(command: str) -> list[str]:
    """The fixtures ``command`` is captured on, in file-name order."""
    names = []
    for path in sorted(SPECS.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        if command not in ENVELOPE_COMMANDS or raw["output_dim"] == 1:
            names.append(path.stem)
    return names


def strict_json(text: str):
    """``text`` parsed as strict JSON (RFC 8259), which has no NaN or
    Infinity; raises ValueError on either."""

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def golden_runs(command: str, names, grids) -> dict:
    """Exit code, CSV and report sha256, stdout and stderr of ``command`` on
    each fixture in ``names`` at each of ``grids``, and on each of
    :data:`HOLES` at 17.  Each run starts in the fixture's directory, with
    stdout and stderr redirected and warnings recorded, not printed.  Every
    report must parse as :func:`strict_json`."""
    seen = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = [(SPECS, name, g) for name in names for g in grids]
        for name, spec in HOLES.items():
            (tmp / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
            runs.append((tmp, name, 17))
        out, report = tmp / "h.csv", tmp / "report.json"

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None

        try:
            for where, name, grid in runs:
                os.chdir(where)
                out.unlink(missing_ok=True)
                report.unlink(missing_ok=True)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                    stderr
                ), warnings.catch_warnings(record=True):
                    rc = main([command, "--spec", f"{name}.json", "--grid", str(grid),
                               "--out", str(out), "--report", str(report)])
                if report.exists():
                    strict_json(report.read_text(encoding="utf-8"))
                seen[f"{name} --grid {grid}"] = {
                    "exit": rc, "csv_sha256": sha(out), "report_sha256": sha(report),
                    "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                }
        finally:
            os.chdir(home)
    return seen


def capture(command: str, grids) -> Path:
    """Write the golden file of ``command`` at ``grids``; returns its path."""
    seen = golden_runs(command, fixture_names(command), grids)
    path = HERE / f"{command.replace('-', '_')}.json"
    path.write_text(json.dumps(seen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(f"usage: python {sys.argv[0]} <command> <grid> [<grid> ...]")
    print(capture(sys.argv[1], [int(g) for g in sys.argv[2:]]))
