"""One benchmark process: a fresh interpreter running the real CLI path.

Usage::

    python3 perfbench/child.py RESULT_JSON SRC_DIR MODE -- CLI_ARGS...

``MODE`` is ``setup`` (import ``convsel`` and load the spec, then stop),
``solve`` (run ``convsel.specio.cli.main`` on ``CLI_ARGS``) or ``trace``
(the same, with the outside-in tracer installed).  The parent records
``time.monotonic()`` just before it starts this process; the clock is
shared by all processes, so the parent turns the stamps written here into
set-up and solve times.  The only hook in untraced runs wraps
``load_spec`` as the CLI looks it up, to stamp the end of set-up.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, src, mode = sys.argv[1:4]
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    from convsel.specio import cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"convsel was imported from {where}, not from {src}", file=sys.stderr)
        return 3

    stamps = {}
    if mode == "setup":
        cli.load_spec(cli_args[cli_args.index("--spec") + 1])
        stamps["t_loaded"] = time.monotonic()
        rc = 0
    else:
        tracer = None
        if mode == "trace":
            import tracer as tracer_mod

            tracer = tracer_mod.Tracer()
            tracer.install()
        load_spec = cli.load_spec

        def stamped_load_spec(path):
            spec = load_spec(path)
            stamps["t_loaded"] = time.monotonic()
            return spec

        cli.load_spec = stamped_load_spec
        rc = cli.main(cli_args)
        stamps["t_end"] = time.monotonic()
        if tracer is not None:
            stamps["layers"] = tracer.metrics()
            stamps["spans"] = tracer.spans

    stamps["rc"] = rc
    stamps["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
