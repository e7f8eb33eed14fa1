"""End-to-end acceptance checks: one test, and one printed line, per
shipped guarantee.

Run ``pytest tests/test_acceptance.py -v -s`` to see the [PASS]/[FAIL]
line for each criterion inline; without ``-s`` the lines appear in the
captured-output section of any failure.
"""

import math
import time
from pathlib import Path

import mpmath
import numpy as np

from conftest import NONZERO, ORIGIN, interval_rule, ref_eval, random_ast
from convsel.errors import EvalDomainError, ExprSyntaxError
from convsel.fields import (
    Domain,
    Grid,
    TAG_CONTINUOUS,
    compress,
    constant_field,
    decompress,
    modulus_ratios,
    semicontinuity_audit,
)
from convsel.geometry import Ball, HPolytope, Interval
from convsel.maps import (
    EVERYWHERE,
    SetValuedMap,
    Stratification,
    envelopes,
    lsc_audit,
    shift,
)
from convsel.sandwich import sandwich_select
from convsel.selection import michael_select
from convsel.specio.cli import main as cli_main
from convsel.specio.expr import evaluate, parse_expr
from convsel.specio.loader import load_spec
from convsel.urysohn import ClosedSet, dist_field, separator, tietze_extend
from reference.fields_pointwise import lift
from reference.maps_pointwise import load_pointwise

SPECS = Path(__file__).parent / "specs"


def _report(num: int, label: str, failures: list, elapsed: float | None = None,
             budget: float | None = None):
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{status}] criterion {num}: {label}{timing}")
    assert not failures, f"criterion {num} — " + " | ".join(failures)


# --- criterion 1: least-norm points on random bodies ------------------------


def _random_bounded_body(rng: np.random.Generator):
    """Interval, ball (m <= 3), or bounded polytope with at most 8 facets."""
    m = int(rng.integers(1, 4))
    kind = int(rng.integers(0, 3))
    if kind == 0 and m == 1:
        a, b = np.sort(rng.uniform(-5, 5, size=2))
        return Interval(a, b)
    if kind <= 1:
        return Ball(rng.uniform(-4, 4, size=m), rng.uniform(0.2, 3.0))
    lo = rng.uniform(-5, 0, size=m)
    hi = lo + rng.uniform(0.5, 5.0, size=m)
    inner = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
    box = HPolytope.from_box(lo, hi)
    k = int(rng.integers(1, min(4, 8 - 2 * m) + 1))  # stay within 8 facets
    A = rng.normal(size=(k, m))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = A @ inner + rng.uniform(0.1, 1.5, size=k)
    return HPolytope(
        np.vstack([box.A, A]), np.concatenate([box.b, b]), bounding_box=(lo, hi)
    )


def _min_norm_by_sampling(body, count: int, rng: np.random.Generator) -> float:
    lo, hi = body.sample_bounds()
    if np.all(hi - lo <= 1e-12):
        return float(np.linalg.norm(0.5 * (lo + hi)))
    best = math.inf
    have = 0
    while have < count:
        cand = rng.uniform(lo, hi, size=(max(count, 4096), body.dim))
        keep = cand[body.contains_many(cand, tol=0.0)]
        if keep.shape[0]:
            best = min(best, float(np.min(np.linalg.norm(keep, axis=1))))
            have += keep.shape[0]
    return best


def test_criterion_1_least_norm_points():
    rng = np.random.default_rng(0xACC1)
    failures = []
    start = time.monotonic()
    for i in range(100):
        body = _random_bounded_body(rng)
        y = body.least_norm()
        if not body.contains(y, tol=1e-8):
            failures.append(f"body {i}: least-norm point infeasible ({body!r})")
            continue
        best = _min_norm_by_sampling(body, 100_000, rng)
        norm = float(np.linalg.norm(y))
        if norm > best + 1e-6:
            failures.append(
                f"body {i}: |y| = {norm:.9f} beats no sample (best {best:.9f})"
            )
    _report(
        1,
        "least-norm points feasible and sample-minimal on 100 random bodies",
        failures,
        elapsed=time.monotonic() - start,
        budget=10.0,
    )


# --- criterion 2: stratified selection suite ---------------------------------

MICHAEL_SUITE = ("m_const", "m_two_stratum", "m_vband", "m_ball", "m_poly")


def test_criterion_2_michael_suite():
    failures = []
    start = time.monotonic()
    for name in MICHAEL_SUITE:
        spec = load_spec(str(SPECS / f"{name}.json"))
        one_d = spec.ambient_dim == 1
        resolution = 129 if one_d else 9
        h, _ = michael_select(spec.map, spec.stratification, resolution=resolution)

        membership_grid = Grid(spec.domain, 1025 if one_d else 33)
        assert len(membership_grid) >= 1000
        oracle, _ = load_pointwise(spec.raw)  # T one point at a time
        worst = 0.0
        for x in membership_grid.points:
            y = np.asarray(h(x), dtype=float)
            worst = max(worst, float(oracle.evaluate(x).distance(y)))
        if worst > 1e-7:
            failures.append(f"{name}: membership distance {worst:.3e} > 1e-7")

        c = np.full(spec.output_dim, -0.25)
        h_shifted, _ = michael_select(
            shift(spec.map, c), spec.stratification, resolution=resolution
        )
        eq_grid = Grid(spec.domain, 65 if one_d else 9)
        drift = 0.0
        for x in eq_grid.points:
            drift = max(drift, float(np.max(np.abs(h_shifted(x) + c - h(x)))))
        if drift > 1e-9:
            failures.append(f"{name}: translation equivariance off by {drift:.3e}")

        ratios = modulus_ratios(h, spec.domain, 65 if one_d else 9, halvings=2)
        bad = [r for r in ratios if r is not None and r > 0.75]
        if bad:
            failures.append(f"{name}: modulus ratios {ratios} exceed 0.75")
    _report(
        2,
        "membership, equivariance, and modulus decay for 5 stratified maps",
        failures,
        elapsed=time.monotonic() - start,
        budget=30.0,
    )


# --- criterion 3: sandwich suite ---------------------------------------------

SANDWICH_SUITE = ("s_line", "s_free", "s_spike", "s_mixed", "s_kink", "s_parab")


def test_criterion_3_sandwich_suite():
    failures = []
    start = time.monotonic()
    for name in SANDWICH_SUITE:
        spec = load_spec(str(SPECS / f"{name}.json"))
        f, g = envelopes(spec.map)
        h, _ = sandwich_select(f, g, spec.stratification)
        grid = Grid(spec.domain, 257)
        worst_bound = 0.0
        worst_strict = -math.inf
        nonfinite = 0
        for x in grid.points:
            vf, vg, vh = f(x), g(x), h(x)
            if not math.isfinite(vh):
                nonfinite += 1
                continue
            worst_bound = max(worst_bound, vf - 1e-9 - vh, vh - vg - 1e-9)
            if vg - vf > 1e-3:
                worst_strict = max(worst_strict, vf - vh, vh - vg)
        if nonfinite:
            failures.append(f"{name}: {nonfinite} non-finite values of h")
        if worst_bound > 0.0:
            failures.append(f"{name}: h leaves [f-1e-9, g+1e-9] by {worst_bound:.3e}")
        if worst_strict >= 0.0:
            failures.append(f"{name}: h touches an envelope on the strict zone")
        ratios = modulus_ratios(h, spec.domain, 65, halvings=2)
        bad = [r for r in ratios if r is not None and r > 0.75]
        if bad:
            failures.append(f"{name}: modulus ratios {ratios} exceed 0.75")
    _report(
        3,
        "sandwich bounds, strictness, finiteness, and modulus decay on 6 instances",
        failures,
        elapsed=time.monotonic() - start,
        budget=30.0,
    )


# --- criterion 4: extension operator -----------------------------------------


def test_criterion_4_tietze_instances():
    failures = []

    def check(tag, g, anchors, expected, E, base, lo, hi, halvings=3):
        for a, want in zip(anchors, expected):
            got = g(a)
            if abs(got - want) > 1e-12:
                failures.append(f"{tag}: g({a}) = {got!r}, want {want!r} (1e-12)")
        probe = Grid(E, 2 * base + 1)
        vals = [g(x) for x in probe.points]
        if min(vals) < lo - 1e-12 or max(vals) > hi + 1e-12:
            failures.append(
                f"{tag}: range [{min(vals):.3e}, {max(vals):.3e}] leaves [{lo}, {hi}]"
            )
        ratios = modulus_ratios(g, E, base, halvings=halvings)
        bad = [r for r in ratios if r is not None and r > 0.75]
        if bad:
            failures.append(f"{tag}: modulus ratios {ratios} exceed 0.75")

    # two anchor points carrying 0 and 1
    E1 = Domain(1, boxes=(((-1.0,), (2.0,)),))
    A1 = ClosedSet.from_cloud(np.array([[0.0], [1.0]]))
    g1 = tietze_extend(
        lift(E1, lambda x: x[0], tag=TAG_CONTINUOUS), A1, E1
    )
    check("two-point", g1, [[0.0], [1.0]], [0.0, 1.0], E1, 33, 0.0, 1.0)
    if abs(g1([0.5])) > 1e-10:
        failures.append(f"two-point: g(0.5) = {g1([0.5])!r} not 0 within 1e-10")

    # a parabola extended off the box it lives on
    E2 = Domain(1, boxes=(((-3.0,), (3.0,)),))
    A2 = ClosedSet(1, boxes=(((-1.0,), (1.0,)),))
    g2 = tietze_extend(
        lift(E2, lambda x: x[0] ** 2, tag=TAG_CONTINUOUS), A2, E2
    )
    anchors2 = [[v] for v in np.linspace(-1, 1, 9)]
    check("parabola", g2, anchors2, [v[0] ** 2 for v in anchors2], E2, 33, 0.0, 1.0)

    # a plane-cloud instance
    E3 = Domain(2, boxes=(((0.0, 0.0), (1.0, 1.0)),))
    A3 = ClosedSet.from_cloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
    g3 = tietze_extend(
        lift(E3, lambda x: x[0], tag=TAG_CONTINUOUS), A3, E3
    )
    check("diagonal-cloud", g3, [[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0], E3, 9, 0.0, 1.0)

    # a constant extends to itself
    E4 = Domain(1, boxes=(((-2.0,), (4.0,)),))
    A4 = ClosedSet(1, boxes=(((0.0,), (1.0,)),), points=((3.0,),))
    g4 = tietze_extend(constant_field(E4, 2.5), A4, E4)
    check("constant", g4, [[0.5], [3.0], [-2.0]], [2.5, 2.5, 2.5], E4, 33, 2.5, 2.5)

    _report(4, "extension operator: anchored values, range, and modulus decay", failures)


# --- criterion 5: distance fields and separators ------------------------------


def test_criterion_5_urysohn_instances():
    failures = []
    E = Domain(1, boxes=(((-3.0,), (4.0,)),))
    A = ClosedSet(1, boxes=(((0.0,), (1.0,)),), points=((3.0,),))
    d = dist_field(A, E)
    grid = Grid(E, 257)
    vals = np.array([d(x) for x in grid.points])
    edges, spacing = grid.directed_edges()
    gaps = np.abs(vals[edges[:, 0]] - vals[edges[:, 1]])
    worst = float(np.max(gaps - spacing))
    if worst > 1e-12:
        failures.append(f"distance field breaks 1-Lipschitz by {worst:.3e}")

    s = separator(
        ClosedSet(1, points=((0.0,),)), ClosedSet(1, points=((1.0,),)), E
    )
    if s([0.0]) != 0.0:
        failures.append(f"separator is {s([0.0])!r} on A1, want exactly 0.0")
    if s([1.0]) != 1.0:
        failures.append(f"separator is {s([1.0])!r} on A2, want exactly 1.0")
    if abs(s([0.25]) - 0.25) > 1e-12:
        failures.append(f"separator(0.25) = {s([0.25])!r}, want 0.25 within 1e-12")
    svals = [s([x]) for x in np.linspace(-3, 4, 201)]
    if min(svals) < 0.0 or max(svals) > 1.0:
        failures.append("separator leaves [0, 1]")

    _report(5, "distance-field Lipschitz bound and pinned separator values", failures)


# --- criterion 6: the audits tell the good and bad declarations apart ---------


def test_criterion_6_audit_pair():
    failures = []
    dom = Domain(1, boxes=(((-1.0,), (1.0,)),))
    grid = Grid(dom, 33)

    good = SetValuedMap(
        dom,
        1,
        ((NONZERO, interval_rule(0.0, 1.0)), (ORIGIN, interval_rule(0.0, 0.0))),
        declared_lsc=True,
    )
    bad = SetValuedMap(
        dom,
        1,
        ((NONZERO, interval_rule(0.0, 0.0)), (ORIGIN, interval_rule(0.0, 1.0))),
        declared_lsc=True,
    )

    if not lsc_audit(good, grid).passed:
        failures.append("the genuinely lsc map fails the lsc audit")
    report = lsc_audit(bad, grid)
    if report.passed:
        failures.append("the transposed map passes the lsc audit")
    else:
        worst = max(report.violations, key=lambda v: v.deficit)
        if worst.x != (0.0,) or worst.probe != (1.0,):
            failures.append(
                f"wrong witness: x={worst.x}, probe={worst.probe}, "
                "want x=(0.0,), probe=(1.0,)"
            )

    _, g = envelopes(good)
    rep = semicontinuity_audit(g, grid)
    if g.tag != "lower" or not rep.passed:
        failures.append("the upper envelope of the lsc map fails its lower-sc audit")

    _report(6, "lsc audit separates the two-piece map from its transpose", failures)


# --- criterion 7: compression round-trip --------------------------------------


def test_criterion_7_compression_roundtrip():
    failures = []
    mags = np.logspace(-6.0, 6.0, 5000)
    xs = np.concatenate([-mags[::-1], mags])
    assert xs.size == 10_000
    worst = 0.0
    for x in xs:
        back = decompress(compress(x))
        worst = max(worst, abs(float(back - mpmath.mpf(float(x)))))
    if worst > 1e-12:
        failures.append(f"round-trip drifts by {worst:.3e} > 1e-12")
    if compress(math.inf) != 1.0:
        failures.append(f"compress(+inf) = {compress(math.inf)!r}, want exactly 1")
    if compress(-math.inf) != -1.0:
        failures.append(f"compress(-inf) = {compress(-math.inf)!r}, want exactly -1")
    _report(7, "compress/decompress identity on 10^4 log-spaced values", failures)


# --- criterion 8: expression language and deterministic output ----------------

GOLDEN_PARSE_ERRORS = [
    ("1+", 2),
    ("", 0),
    ("(1+2", 4),
    ("1 @ 2", 2),
    ("foo(3)", 0),
    ("y1 + 1", 0),
    ("min(1)", 5),
    ("x1^2.5", 3),
    ("1 2", 2),
    ("*3", 0),
]


def _agrees_to_one_ulp(a: float, b: float) -> bool:
    if repr(a) == repr(b):  # covers equal specials (inf, -inf, nan)
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= math.ulp(max(abs(a), abs(b)))


def test_criterion_8_spec_io(tmp_path):
    failures = []

    rng = np.random.default_rng(0xACC8)
    mismatches = 0
    for _ in range(1000):
        tree = random_ast(rng, depth=4, n_vars=2)
        point = rng.uniform(-3, 3, size=2)
        try:
            mine = evaluate(tree, point)
            mine_raised = False
        except EvalDomainError:
            mine_raised = True
        try:
            ref = ref_eval(tree, point)
            ref_raised = False
        except ArithmeticError:
            ref_raised = True
        if mine_raised != ref_raised:
            mismatches += 1
        elif not mine_raised and not _agrees_to_one_ulp(mine, ref):
            mismatches += 1
    if mismatches:
        failures.append(f"{mismatches}/1000 ASTs disagree with the reference evaluator")

    for src, offset in GOLDEN_PARSE_ERRORS:
        try:
            parse_expr(src)
            failures.append(f"{src!r} parsed but should fail")
        except ExprSyntaxError as exc:
            if exc.offset != offset:
                failures.append(
                    f"{src!r}: error offset {exc.offset}, want {offset}"
                )

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = cli_main(
            [
                "select-michael",
                "--spec", str(SPECS / "m_two_stratum.json"),
                "--grid", "33",
                "--out", str(out),
            ]
        )
        if rc != 0:
            failures.append(f"CSV determinism run exited {rc}")
    if a.exists() and b.exists() and a.read_bytes() != b.read_bytes():
        failures.append("two identical runs produced different CSV bytes")

    _report(
        8,
        "expression evaluator vs reference, pinned parse errors, stable CSV",
        failures,
    )
