#!/usr/bin/env python3
"""convsel benchmark: seeded problems through the real CLI, checked and timed.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload poly-michael --seed 0 --seconds 56 --trace 0

A run writes the generated problem into a scratch directory under
``.bench_build/`` and then, one process at a time, starts fresh
interpreters that import ``convsel`` from ``src/`` of the checkout:

1. one set-up process as warm-up, discarded: it compiles byte code and
   fills the file cache, which every later process then finds warm;
2. full CLI runs (``convsel.specio.cli.main``), each in a fresh
   interpreter so that its set-up includes the import, started while
   they are expected to end within ``--seconds``, at least
   ``MIN_SOLVES`` of them;
3. with ``--trace 1``, one more full run with the outside-in tracer,
   for which step 2 leaves room in the budget.

Every full run is checked (``check.py``).  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics
(medians over the run's processes); with ``--trace 1`` it carries the
per-layer metrics of the traced process.  Earlier lines are a readable
summary, including ``fail_ratio`` and whether the CSV is byte-identical
to the stored reference.  The exit status is nonzero, with no JSON line,
when the checkout holds no ``src/convsel`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# name -> (subcommand, problem family, --grid); see BENCHMARK.json for why.
# ball-michael runs by hand only: BENCHMARK.json leaves it out so that the
# other two get longer runs (perfbench/baseline.json has the measurements).
WORKLOADS = {
    "poly-michael": ("select-michael", "m_poly", 9),
    "ball-michael": ("select-michael", "m_ball", 65),
    "sandwich-mixed": ("select-sandwich", "s_mixed", 2049),
}
TOL = 1e-7
MIN_SOLVES = 3
# every process is killed at this many seconds after the run began, so a
# run ends within the 180 s it is allowed even when the program hangs
HARD_LIMIT_S = 160


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def cli_argv(command: str, spec: Path, grid: int, work: Path, tag: str) -> list[str]:
    """CLI arguments of one run, writing ``<tag>.csv`` and ``<tag>.report.json``."""
    return [command, "--spec", str(spec), "--grid", str(grid), "--tol", str(TOL),
            "--out", str(work / f"{tag}.csv"), "--report", str(work / f"{tag}.report.json")]


def _spawn(mode: str, cli_args: list[str], tag: str, work: Path, env: dict,
           deadline: float) -> dict:
    """Run one child process to completion, killing it at the ``deadline``
    (a ``time.monotonic()`` value); return its stamps plus timings."""
    result = work / f"{tag}.json"
    log = work / f"{tag}.log"
    argv = [sys.executable, str(HERE / "child.py"), str(result), str(SRC), mode,
            "--", *cli_args]
    with open(log, "wb") as out:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"{tag}: killed at the run's time limit"}
    if code != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        return {"error": f"{tag}: harness process exited {code}: {tail}"}
    stamps = json.loads(result.read_text(encoding="utf-8"))
    stamps["setup_s"] = stamps["t_loaded"] - t_spawn
    if "t_end" in stamps:
        stamps["solve_s"] = stamps["t_end"] - stamps["t_loaded"]
    return stamps


def _check_run(stamps: dict, tag: str, work: Path, family: str, params: dict,
               n: int, grid: int, reference: bytes | None) -> list[str]:
    if "error" in stamps:
        return [stamps["error"]]
    if stamps["rc"] != 0:
        return [f"{tag}: CLI exit status {stamps['rc']}"]
    try:
        errors = [f"{tag}: invariant {name} failed"
                  for name in check.failed_invariants(work / f"{tag}.report.json")]
        out = (work / f"{tag}.csv").read_bytes()
        header, rows = check.parse_csv(out)
        errors += [f"{tag}: {e}" for e in
                   check.selection_errors(family, params, n, grid, header, rows, TOL)]
        if reference is not None:
            worst, _ = check.compare_reference(out, reference)
            if worst > TOL:
                errors.append(f"{tag}: CSV deviates from the reference by {worst:.3e}")
    except (OSError, ValueError) as exc:
        return [f"{tag}: unreadable output: {exc}"]
    return errors


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=56.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + HARD_LIMIT_S

    if not (SRC / "convsel" / "__init__.py").is_file():
        print(f"error: no convsel sources under {SRC}", file=sys.stderr)
        return 2
    command, family, grid = WORKLOADS[args.workload]
    problem, params = gen.make(family, args.seed)
    n = problem["ambient_dim"]
    reference = None
    if args.seed == gen.DEFAULT_SEED:
        reference = check.reference_bytes(args.workload)

    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        spec = work / "problem.json"
        spec.write_text(json.dumps(problem, indent=1), encoding="utf-8")
        env = _child_env()

        def run(mode: str, tag: str) -> tuple[dict, list[str]]:
            argv = cli_argv(command, spec, grid, work, tag)
            stamps = _spawn(mode, argv, tag, work, env, deadline)
            if mode == "setup":
                return stamps, [stamps["error"]] if "error" in stamps else []
            return stamps, _check_run(stamps, tag, work, family, params, n, grid,
                                      reference)

        _, errors = run("setup", "warm-up")

        # a traced run keeps room in its budget for the traced process
        reserve = 2 if args.trace else 1
        start = time.monotonic()
        setups, solves, rss, csvs = [], [], [], []
        attempted = failed = 0
        longest = 0.0
        while attempted < MIN_SOLVES or (
            time.monotonic() - start + reserve * longest <= args.seconds
        ):
            tag = f"solve{attempted}"
            t0 = time.monotonic()
            stamps, bad = run("solve", tag)
            longest = max(longest, time.monotonic() - t0)
            attempted += 1
            if bad:  # a broken program: further runs would only repeat it
                failed += 1
                errors += bad
                break
            setups.append(stamps["setup_s"])
            solves.append(stamps["solve_s"])
            rss.append(stamps["maxrss_kb"] / 1024.0)
            csvs.append((work / f"{tag}.csv").read_bytes())
        if len(set(csvs)) > 1:
            errors.append("CSV bytes differ between identical runs")

        layers = {}
        if args.trace and not failed:
            stamps, bad = run("trace", "traced")
            attempted += 1
            if not bad and csvs and (work / "traced.csv").read_bytes() != csvs[0]:
                bad = ["traced: CSV differs from the untraced one"]
            if bad:
                failed += 1
                errors += bad
            else:
                layers = stamps["layers"]
                layers["trace.overhead_s"] = stamps["solve_s"] - _median(solves)
                spans = WORK / f"{args.workload}-seed{args.seed}-spans.json"
                spans.write_text(json.dumps(stamps["spans"]), encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not errors and bool(solves)
    end_to_end = {
        "solve_s": (_median(solves), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    if reference is None:
        ref_note = "no reference for this seed"
    elif csvs:
        ref_note = f"byte-identical to the reference: {'yes' if csvs[0] == reference else 'no'}"
    else:
        ref_note = "no CSV to compare with the reference"
    print(f"# {args.workload} seed {args.seed}: {ref_note}")
    print("# solves: " + " ".join(f"{s:.3f}" for s in solves) + " s")
    for name, (value, unit) in end_to_end.items():
        print(f"# {name:14s} {value:.6g} {unit}")
    print(f"# {'fail_ratio':14s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for e in errors:
        print(f"# error: {e}")
    if args.trace:
        metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}
    else:
        metrics = end_to_end if solves else {}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
