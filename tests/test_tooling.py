"""Properties of the installed package as a whole, checked in a fresh
interpreter so that nothing this test session imported leaks in."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import convsel


def loaded_by_import(module: str) -> bool:
    """Whether importing convsel and its CLI in a fresh interpreter loads ``module``."""
    src = str(Path(convsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, convsel, convsel.specio.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return out.stdout.strip() == "True"


def library_imports() -> list[tuple[str, str]]:
    """``(file, module)`` for every absolute import in the library's
    source, by its syntax tree, so an import on a path no test runs counts
    too."""
    src = Path(convsel.__file__).resolve().parent
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [(str(path.relative_to(src)), name) for name in names]
    return found


def test_the_library_imports_no_scipy():
    # every polytope is solved by numpy alone; scipy is a test oracle only
    assert [(f, name) for f, name in library_imports() if name.split(".")[0] == "scipy"] == []


def test_import_does_not_load_mpmath():
    # only fields.compress / decompress need mpmath, and no CLI path calls them
    assert not loaded_by_import("mpmath")


def test_the_library_imports_nothing_from_the_tests():
    # the pointwise oracles in tests/reference stay out of the library
    tests = Path(__file__).resolve().parent
    local = {p.stem for p in tests.glob("*.py")} | {p.name for p in tests.iterdir() if p.is_dir()}
    local |= {"reference", "tests"}
    assert [(f, name) for f, name in library_imports() if name.split(".")[0] in local] == []


def test_every_exported_name_resolves():
    import convsel.specio

    for module in (convsel, convsel.specio):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/tracer.py patches these names from outside the package; a
    # name that disappears crashes the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t[:3] for t in tracer.SPANS] + [t[:3] for t in tracer.COUNTERS]
    missing = []
    for module, owner, attr in targets:
        mod = importlib.import_module(module)
        if owner is None:
            found = callable(getattr(mod, attr, None))
        else:
            # the tracer wraps ``cls.__dict__[attr]``: an inherited name fails
            found = attr in vars(getattr(mod, owner, object))
        if not found:
            missing.append(f"{module}.{owner + '.' if owner else ''}{attr}")
    assert missing == []


def test_a_traced_run_writes_the_same_bytes_and_evaluates_no_point_alone(tmp_path):
    # perfbench/child.py with and without the tracer, as ``perfbench/run.py
    # --trace 1`` starts it: the CSV is the same, and the counters of
    # one-point map, region and expression calls read 0, as do those of
    # polytopes built and projected one at a time, while the counters of
    # the layers that still run through the wrapped names do count
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = {}
    for mode in ("solve", "trace"):
        result, csv = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
        subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), str(result), str(src), mode,
             "--", "select-michael", "--spec", str(root / "tests" / "specs" / "m_poly.json"),
             "--grid", "5", "--out", str(csv)],
            env=env, capture_output=True, check=True, timeout=120,
        )
        stamps = json.loads(result.read_text(encoding="utf-8"))
        assert stamps["rc"] == 0
        out[mode] = csv.read_bytes()
    assert out["trace"] == out["solve"]
    layers = stamps["layers"]
    assert [layers[k] for k in ("maps.map_evals", "maps.region_tests", "specio.expr_nodes")] == [
        0, 0, 0]
    assert [layers[k] for k in ("geometry.polytopes_built", "geometry.project_calls")] == [0, 0]
    assert layers["fields.modulus_points"] > 0 and layers["urysohn.tietze_builds"] > 0
