#!/usr/bin/env python3
"""Write the reference CSVs that ``run.py`` compares the default seed against.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's CLI once on the default seed's problem and stores its
CSV, gzip-compressed without a time stamp, as
``perfbench/reference/<workload>.csv.gz``.  The references belong to the
commit that defined the benchmark; regenerate them only when a change is
meant to alter the output, and say so in that change.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import time

import check
import gen
import run


def main(names: list[str]) -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    env = run._child_env()
    run.WORK.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(run.WORKLOADS):
        command, family, grid = run.WORKLOADS[name]
        problem, params = gen.make(family, gen.DEFAULT_SEED)
        work = run.WORK / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            spec = work / "problem.json"
            spec.write_text(json.dumps(problem), encoding="utf-8")
            argv = run.cli_argv(command, spec, grid, work, "ref")
            stamps = run._spawn("solve", argv, "ref", work, env,
                                time.monotonic() + run.HARD_LIMIT_S)
            errors = run._check_run(stamps, "ref", work, family, params,
                                    problem["ambient_dim"], grid, None)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            data = (work / "ref.csv").read_bytes()
            out = check.REFERENCE_DIR / f"{name}.csv.gz"
            out.write_bytes(gzip.compress(data, mtime=0))
            print(f"{out}: {len(data)} bytes of CSV")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
