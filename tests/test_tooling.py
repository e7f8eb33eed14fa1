"""Properties of the installed package as a whole, checked in a fresh
interpreter so that nothing this test session imported leaks in."""

import os
import subprocess
import sys
from pathlib import Path

import convsel


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is only needed by the polytope fallback and is imported
    # on first use; loading it up front costs most of the start-up time
    src = str(Path(convsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, convsel, convsel.specio.cli; "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
