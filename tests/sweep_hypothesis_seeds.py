#!/usr/bin/env python3
"""Run the hypothesis tests at ``--hypothesis-seed`` 0 to 30 and list each
failure.

The tier-1 run does not collect this file (pytest collects ``test_*.py``).
Usage, from the root of a checkout::

    python tests/sweep_hypothesis_seeds.py            # seeds 0..30
    python tests/sweep_hypothesis_seeds.py --seeds 24 25
    python tests/sweep_hypothesis_seeds.py -k "oracle or stream"   # pytest -k

Each seed runs ``pytest -m hypothesis`` (the tests written with
``@given``) in a fresh interpreter with an empty example database, so a
failure belongs to that seed and is not a saved example replayed.  With
``-k EXPR`` each seed runs the tests that pytest's ``-k EXPR`` selects
instead, with or without ``@given``.  One
line is printed per seed, followed by the failing test ids; the exit
status is 1 when any seed failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_seed(seed: int, select: str | None = None) -> tuple[int, list[str]]:
    """pytest's exit status and the failing test ids at one seed, over the
    hypothesis tests or, given ``select``, the tests ``-k select`` picks."""
    with tempfile.TemporaryDirectory() as database:
        env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=database)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        chosen = ["-m", "hypothesis"] if select is None else ["-k", select]
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *chosen,
             f"--hypothesis-seed={seed}", "-rf", str(ROOT / "tests")],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    return run.returncode, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(31)),
                        help="the seeds to run (default: 0 to 30)")
    parser.add_argument("-k", dest="select", metavar="EXPR",
                        help="run the tests pytest -k EXPR selects, not the hypothesis tests")
    args = parser.parse_args(argv)
    bad = 0
    for seed in args.seeds:
        status, failed = run_seed(seed, args.select)
        if status == 0:
            print(f"seed {seed}: passed", flush=True)
            continue
        bad += 1
        print(f"seed {seed}: {len(failed)} failed (pytest exit {status})", flush=True)
        for test in failed:
            print(f"  {test}", flush=True)
    print(f"{bad} of {len(args.seeds)} seeds failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
