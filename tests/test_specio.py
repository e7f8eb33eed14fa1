import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from convsel.errors import EvalDomainError, InfeasibleBodyError, SpecValidationError
from convsel.fields import Domain, Grid
from convsel.geometry import Ball, HPolytope, Interval, PolytopeBatch, kernel_operators
from convsel.maps import SetValuedMap
from convsel.specio import cli
from convsel.specio.cli import (
    _envelope_entries,
    _membership_entry,
    _ratio_entry,
    _write_csv,
    main,
)
from convsel.specio.loader import load_spec, load_spec_dict
from golden.capture import HOLE_AT_ONE_32ND, fixture_names, golden_runs, strict_json

MINIMAL = {
    "ambient_dim": 1,
    "output_dim": 1,
    "domain": {"boxes": [{"lo": [-1.0], "hi": [1.0]}]},
    "pieces": [{"region": [], "body": {"interval": {"lo": "0", "hi": "2"}}}],
}


def variant(**overrides) -> dict:
    raw = copy.deepcopy(MINIMAL)
    raw.update(overrides)
    return raw


class TestLoader:
    def test_minimal_spec(self):
        spec = load_spec_dict(variant())
        assert spec.ambient_dim == 1 and spec.output_dim == 1
        assert spec.stratification.depth == 1
        body = spec.map([0.5])
        assert isinstance(body, Interval)
        assert (body.lo, body.hi) == (0.0, 2.0)
        assert not spec.map.declared_lsc

    def test_file_round_trip(self, specs_dir):
        spec = load_spec(str(specs_dir / "m_two_stratum.json"))
        assert spec.map.declared_lsc
        assert spec.stratification.depth == 2
        assert spec.map([0.5]).lo == 0.0
        assert spec.map([0.0]).lo == 1.0

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecValidationError, match=r"\$\.bogus"):
            load_spec_dict(variant(bogus=1))

    def test_missing_required_key(self):
        raw = variant()
        del raw["pieces"]
        with pytest.raises(SpecValidationError, match=r"\$\.pieces: missing"):
            load_spec_dict(raw)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(SpecValidationError, match=r"\$\.ambient_dim"):
            load_spec_dict(variant(ambient_dim=True))

    def test_dimension_lower_bound(self):
        with pytest.raises(SpecValidationError, match="must be >= 1"):
            load_spec_dict(variant(output_dim=0))

    def test_bad_expression_reports_path_and_offset(self):
        raw = variant(
            pieces=[{"region": [], "body": {"interval": {"lo": "1 +", "hi": "2"}}}]
        )
        with pytest.raises(
            SpecValidationError, match=r"\$\.pieces\[0\]\.body\.interval\.lo.*offset"
        ):
            load_spec_dict(raw)

    def test_variable_beyond_ambient_dim(self):
        raw = variant(
            pieces=[{"region": [], "body": {"interval": {"lo": "x3", "hi": "2"}}}]
        )
        with pytest.raises(SpecValidationError, match="uses x3 but ambient_dim is 1"):
            load_spec_dict(raw)

    def test_interval_needs_scalar_output(self):
        with pytest.raises(SpecValidationError, match="output_dim 1"):
            load_spec_dict(variant(output_dim=2))

    def test_ball_center_arity(self):
        raw = variant(
            output_dim=2,
            pieces=[
                {"region": [], "body": {"ball": {"center": ["0"], "radius": "1"}}}
            ],
        )
        with pytest.raises(SpecValidationError, match="expected 2 coordinates"):
            load_spec_dict(raw)

    def test_infinity_literal_is_interval_only(self):
        raw = variant(
            pieces=[
                {"region": [], "body": {"ball": {"center": ["0"], "radius": "inf"}}}
            ],
        )
        with pytest.raises(SpecValidationError, match="bad expression 'inf'"):
            load_spec_dict(raw)

    def test_unbounded_interval_loads(self):
        raw = variant(
            pieces=[
                {"region": [], "body": {"interval": {"lo": "-inf", "hi": "inf"}}}
            ],
        )
        spec = load_spec_dict(raw)
        body = spec.map([0.0])
        assert body.lo == float("-inf") and body.hi == float("inf")

    def test_numeric_literals_allowed_as_expressions(self):
        raw = variant(
            pieces=[{"region": [], "body": {"interval": {"lo": 0, "hi": 2.5}}}]
        )
        assert load_spec_dict(raw).map([0.0]).hi == 2.5

    def test_crossed_constant_interval_fails_at_load(self):
        raw = variant(
            pieces=[{"region": [], "body": {"interval": {"lo": "1", "hi": "0"}}}]
        )
        with pytest.raises(InfeasibleBodyError):
            load_spec_dict(raw)

    def test_piece_coverage_gap_has_witness(self):
        raw = variant(
            pieces=[
                {"region": ["0 < x1"], "body": {"interval": {"lo": "0", "hi": "2"}}}
            ]
        )
        with pytest.raises(
            SpecValidationError, match=r"\$\.pieces: no piece covers the domain point"
        ):
            load_spec_dict(raw)

    def test_strata_overlap_has_witness(self):
        raw = variant(strata=[[], ["0 <= x1"]])
        with pytest.raises(SpecValidationError, match="2 strata overlap"):
            load_spec_dict(raw)

    def test_strata_gap_has_witness(self):
        raw = variant(strata=[["0 < x1"]])
        with pytest.raises(SpecValidationError, match="no stratum covers"):
            load_spec_dict(raw)

    @pytest.mark.parametrize("hole,strata,want", [
        (-0.5, [[], ["abs(x1 - 0.5) <= 0"]],
         "$.pieces: no piece covers the domain point [-0.5]"),
        (0.5, [[], ["abs(x1 + 0.5) <= 0"]],
         "$.strata: 2 strata overlap at the domain point [-0.5]"),
        (0.25, [[], ["abs(x1 - 0.25) <= 0"]],
         "$.pieces: no piece covers the domain point [0.25]"),
        (0.75, [["0 < abs(x1 + 0.75)"]],
         "$.strata: no stratum covers the domain point [-0.75]"),
        (-0.5, [["0 < 1/(x1 + 0.5)"], ["1/(x1 + 0.5) <= 0"]],  # strata raise there
         "$.pieces: no piece covers the domain point [-0.5]"),
    ])
    def test_coverage_names_the_first_failing_point(self, hole, strata, want):
        # the grid is checked at once, then point by point in grid order,
        # each point's piece before its strata
        raw = variant(
            pieces=[{"region": [f"0 < abs(x1 - {hole})"],
                     "body": {"interval": {"lo": "0", "hi": "2"}}}],
            strata=strata,
        )
        with pytest.raises(SpecValidationError) as info:
            load_spec_dict(raw)
        assert str(info.value) == want

    def test_a_strata_failure_seen_on_the_batch_is_found_by_halves(self, monkeypatch):
        # every piece covers and no stratum covers the last grid point
        # only: the batch and then a half at each halving name that point,
        # in at most 2⌈log₂ 33⌉ + 1 batches
        batches = []
        real = SetValuedMap.evaluate_many

        def counted(self, X):
            batches.append(X.shape[0])
            return real(self, X)

        monkeypatch.setattr(SetValuedMap, "evaluate_many", counted)
        with pytest.raises(SpecValidationError) as info:
            load_spec_dict(variant(strata=[["x1 < 1"]]))
        assert str(info.value) == "$.strata: no stratum covers the domain point [1.0]"
        assert batches[0] == 33 and len(batches) <= 2 * 6 + 1

    def test_atom_without_comparison(self):
        raw = variant(
            pieces=[{"region": ["x1"], "body": {"interval": {"lo": "0", "hi": "2"}}}]
        )
        with pytest.raises(SpecValidationError, match="needs '<=' or '<'"):
            load_spec_dict(raw)

    def test_atom_with_chained_comparison(self):
        raw = variant(
            pieces=[
                {"region": ["0 < x1 < 1"], "body": {"interval": {"lo": "0", "hi": "2"}}}
            ]
        )
        with pytest.raises(SpecValidationError, match="exactly one comparison"):
            load_spec_dict(raw)

    def test_strict_vs_weak_atoms(self):
        raw = variant(
            strata=[["0 <= x1"], ["x1 < 0"]],
            pieces=[{"region": [], "body": {"interval": {"lo": "0", "hi": "2"}}}],
        )
        spec = load_spec_dict(raw)
        masks = spec.stratification.masks(np.array([[0.0], [-0.5]]))
        np.testing.assert_array_equal(masks, [[True, False], [False, True]])

    def test_tags_must_be_boolean(self):
        with pytest.raises(SpecValidationError, match=r"\$\.tags\.declared_lsc"):
            load_spec_dict(variant(tags={"declared_lsc": 1}))

    def test_unknown_tag_rejected(self):
        with pytest.raises(SpecValidationError, match=r"\$\.tags\.smooth"):
            load_spec_dict(variant(tags={"smooth": True}))

    def test_hpolytope_body(self, specs_dir):
        spec = load_spec(str(specs_dir / "m_poly.json"))
        body = spec.map([0.0, 0.0])
        assert body.contains([1.0, 1.0], tol=1e-12)
        assert not body.contains([5.0, 5.0], tol=1e-12)

    def test_ball_body(self, specs_dir):
        spec = load_spec(str(specs_dir / "m_ball.json"))
        body = spec.map([0.0, 0.0])
        assert isinstance(body, Ball)
        assert body.center == pytest.approx([1.0, 1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecValidationError, match="cannot read"):
            load_spec(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            load_spec(str(bad))

    def test_non_dict_document(self):
        with pytest.raises(SpecValidationError, match="expected an object"):
            load_spec_dict([1, 2, 3])


def run_cli(*argv) -> int:
    return main(list(argv))


class TestCli:
    def test_michael_happy_path(self, specs_dir, tmp_path):
        out = tmp_path / "h.csv"
        report = tmp_path / "report.json"
        rc = run_cli(
            "select-michael",
            "--spec", str(specs_dir / "m_two_stratum.json"),
            "--grid", "33",
            "--out", str(out),
            "--report", str(report),
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x1,h1"
        assert len(lines) == 34  # header + one row per grid point
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["passed"] is True
        assert payload["command"] == "select-michael"
        names = [e["name"] for e in payload["invariants"]]
        assert names == ["membership", "boundary-decay", "modulus-ratio"]

    def test_csv_is_byte_deterministic(self, specs_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = run_cli(
                "select-michael",
                "--spec", str(specs_dir / "m_two_stratum.json"),
                "--grid", "33",
                "--out", str(out),
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sandwich_happy_path(self, specs_dir, tmp_path):
        report = tmp_path / "report.json"
        rc = run_cli(
            "select-sandwich",
            "--spec", str(specs_dir / "s_mixed.json"),
            "--grid", "33",
            "--report", str(report),
        )
        assert rc == 0
        payload = json.loads(report.read_text(encoding="utf-8"))
        names = [e["name"] for e in payload["invariants"]]
        assert "between-envelopes" in names and "strictly-between" in names

    def test_lns_row_count_matches_grid(self, specs_dir, tmp_path):
        out = tmp_path / "lns.csv"
        rc = run_cli(
            "lns",
            "--spec", str(specs_dir / "m_two_stratum.json"),
            "--grid", "100",
            "--out", str(out),
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 101  # header + exactly 100 rows

    def test_envelopes_csv_labels(self, specs_dir, tmp_path):
        out = tmp_path / "env.csv"
        rc = run_cli(
            "envelopes",
            "--spec", str(specs_dir / "m_two_stratum.json"),
            "--grid", "33",
            "--out", str(out),
        )
        assert rc == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == "x1,f,g"

    def test_envelopes_reject_vector_output(self, specs_dir):
        assert run_cli("envelopes", "--spec", str(specs_dir / "m_ball.json")) == 1

    def test_verify_flags_bad_declaration(self, specs_dir, tmp_path):
        report = tmp_path / "report.json"
        rc = run_cli(
            "verify",
            "--spec", str(specs_dir / "bad_lsc.json"),
            "--report", str(report),
        )
        assert rc == 2
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["passed"] is False
        lsc = next(e for e in payload["invariants"] if e["name"] == "lsc")
        assert not lsc["passed"]
        assert lsc["violations"][0]["x"] == [0.0]

    def test_verify_accepts_sound_declaration(self, specs_dir):
        assert run_cli("verify", "--spec", str(specs_dir / "good_lsc.json")) == 0

    def test_michael_aborts_on_failed_audit(self, specs_dir, tmp_path):
        report = tmp_path / "report.json"
        rc = run_cli(
            "select-michael",
            "--spec", str(specs_dir / "bad_lsc.json"),
            "--report", str(report),
        )
        assert rc == 2
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["passed"] is False
        assert payload["error"]["stage"] == "selection"

    def test_missing_spec_file_is_an_input_error(self, tmp_path):
        assert run_cli("lns", "--spec", str(tmp_path / "nope.json")) == 1

    def test_degenerate_grid_is_an_input_error(self, specs_dir):
        rc = run_cli(
            "lns", "--spec", str(specs_dir / "m_two_stratum.json"), "--grid", "1"
        )
        assert rc == 1

    @pytest.mark.parametrize("command", ["lns", "select-michael", "envelopes"])
    @pytest.mark.parametrize("end", ["inf", "-inf"])
    def test_interval_at_infinity_is_rejected(self, command, end, tmp_path, capsys):
        # [inf, inf] used to pass membership with inf in every CSV row
        spec = tmp_path / "spec.json"
        raw = variant(
            pieces=[{"region": [], "body": {"interval": {"lo": end, "hi": end}}}]
        )
        spec.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "h.csv"
        rc = run_cli(command, "--spec", str(spec), "--grid", "5", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 1
        assert "has no real point" in err and "Traceback" not in err
        if out.exists():
            rows = out.read_text(encoding="utf-8").splitlines()[1:]
            assert all(np.isfinite([float(v) for v in r.split(",")]).all() for r in rows)

    @pytest.mark.parametrize("command", [
        "select-michael", "select-sandwich", "lns", "envelopes", "verify"])
    @pytest.mark.parametrize("row", [
        {"normal": ["1e308*10", "0"], "offset": "1"},  # once h = (-1, 0) everywhere
        {"normal": ["1", "0"], "offset": "1e308*10 - 1e308*10"},  # NaN: a failed certificate
        {"normal": ["1", "0"], "offset": "1e308*10"},  # once exit 0 or 2 by command
    ])
    def test_non_finite_polytope_data_is_an_input_error(self, command, row, tmp_path, capsys):
        # the box |y_i| <= 1 with its first row changed
        rows = [row] + [{"normal": a, "offset": "1"}
                        for a in (["-1", "0"], ["0", "1"], ["0", "-1"])]
        spec = tmp_path / "spec.json"
        raw = variant(output_dim=2, pieces=[{"region": [], "body": {"hpolytope": {"rows": rows}}}])
        spec.write_text(json.dumps(raw), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning either
            rc = run_cli(command, "--spec", str(spec), "--grid", "3")
        assert rc == 1
        assert capsys.readouterr().err == "error: polytope data must be finite\n"

    @pytest.mark.parametrize("key", ["boxes", "points"])
    @pytest.mark.parametrize("value", [5, None, {}, "ab"], ids=["int", "null", "object", "string"])
    def test_a_domain_list_of_another_type_is_an_input_error(self, key, value, tmp_path, capsys):
        # once a TypeError traceback (int, null), "no boxes" (object) or a
        # message about the string's first character
        domain = {"boxes": [{"lo": [-1.0], "hi": [1.0]}], "points": [[2.0]], key: value}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(variant(domain=domain)), encoding="utf-8")
        assert run_cli("verify", "--spec", str(spec), "--grid", "5") == 1
        kind = {int: "int", type(None): "NoneType", dict: "dict", str: "str"}[type(value)]
        assert capsys.readouterr().err == (
            f"error: $.domain.{key}: expected a list of {key}, got {kind}\n")

    def test_usage_errors_exit_one(self):
        assert run_cli("select-michael") == 1        # missing --spec
        assert run_cli("no-such-command") == 1

    def test_report_is_stable_json(self, specs_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for report in (a, b):
            rc = run_cli(
                "verify",
                "--spec", str(specs_dir / "good_lsc.json"),
                "--report", str(report),
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text(encoding="utf-8").startswith('{\n  "')


@pytest.mark.parametrize("command", ["select-sandwich", "select-michael"])
def test_evaluation_errors_abort_with_a_report(command, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(HOLE_AT_ONE_32ND), encoding="utf-8")
    report = tmp_path / "report.json"
    out = tmp_path / "h.csv"
    rc = run_cli(command, "--spec", str(spec), "--grid", "17",
                 "--out", str(out), "--report", str(report))
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err and "division by zero" in err
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["passed"] is False
    assert payload["error"] == {
        "stage": "evaluation", "type": "EvalDomainError", "message": "division by zero",
    }
    assert len(out.read_text(encoding="utf-8").splitlines()) == 18


# two pieces and a gap, (0.01, 0.02), that the load-time grid misses
GAP = variant(
    pieces=[{"region": ["x1 - 0.01 <= 0"], "body": {"interval": {"lo": "0", "hi": "1"}}},
            {"region": ["0.02 - x1 <= 0"], "body": {"interval": {"lo": "0", "hi": "1"}}}],
    tags={"declared_lsc": True},
)


@pytest.mark.parametrize("command, grid", [
    ("select-michael", "33"), ("select-sandwich", "33"),  # on a refined grid
    ("lns", "129"), ("envelopes", "129"), ("verify", "129"),
])
def test_a_point_no_piece_covers_after_load_is_an_input_error(command, grid, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GAP), encoding="utf-8")
    assert run_cli(command, "--spec", str(spec), "--grid", grid) == 1
    assert capsys.readouterr().err == (
        "error: $.pieces: no piece covers the domain point [0.015625]\n"
    )
    # no grid point of 17 lies in the gap
    assert run_cli(command, "--spec", str(spec), "--grid", "17") == 0


class TestConstantNormals:
    """Polytope pieces whose normals are constant share A and the kernel's
    operators across every point instead of rebuilding them."""

    @staticmethod
    def build(rows, x):
        raw = variant(
            ambient_dim=2,
            output_dim=2,
            domain={"boxes": [{"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]},
            pieces=[{"region": [], "body": {"hpolytope": {"rows": rows}}}],
        )
        rule = load_spec_dict(raw).map.pieces[0][1]
        return rule, rule(np.asarray(x, dtype=float)[None]).body(0)

    ROWS = [
        {"normal": ["-1", "0"], "offset": "-1 + x1^2"},
        {"normal": ["0", "-1"], "offset": "-1 + x2^2"},
        {"normal": ["0", "0"], "offset": "1"},  # vacuous, dropped at build
        {"normal": ["1", "1/2"], "offset": "4 + x1"},
    ]

    def test_bodies_share_one_operator_array(self):
        rule, first = self.build(self.ROWS, [0.0, 0.0])
        second = rule(np.array([[0.5, -0.25]])).body(0)
        assert first._sets is not None
        assert first._sets is second._sets
        assert not any(a.flags.writeable for a in first._sets)

    @pytest.mark.parametrize("x", [[0.0, 0.0], [0.5, -0.25], [-1.0, 1.0]])
    def test_shared_build_equals_the_unshared_one(self, x):
        _, body = self.build(self.ROWS, x)
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0], [1.0, 0.5]])
        b = np.array([-1 + x[0] ** 2, -1 + x[1] ** 2, 1.0, 4 + x[0]])
        plain = HPolytope(A, b)
        np.testing.assert_array_equal(body.A, plain.A)
        for got, want in zip(body._sets, plain._sets, strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(body.least_norm(), plain.least_norm())
        for got, want in zip(body.coord_extremes(), plain.coord_extremes()):
            np.testing.assert_array_equal(got, want)
        Z = np.random.default_rng(3).uniform(-6, 6, size=(40, 2))
        np.testing.assert_array_equal(body.project_many(Z), plain.project_many(Z))

    def test_varying_normals_give_one_batch_with_a_matrix_per_row(self):
        # one PolytopeBatch for both points: a normal matrix and operators
        # per row, the zero row dropped as it is zero at every row, and each
        # row's operators those of its own normals
        rows = [dict(self.ROWS[0], normal=["-1", "x1"])] + self.ROWS[1:]
        rule, _ = self.build(rows, [0.0, 0.0])
        bodies = rule(np.array([[0.0, 0.0], [0.5, 0.0]]))
        assert isinstance(bodies, PolytopeBatch)
        assert bodies.A.shape == (2, 3, 2) and bodies._sets.H.shape[0] == 2
        for i, a1 in enumerate([0.0, 0.5]):
            A = np.array([[-1.0, a1], [0.0, -1.0], [1.0, 0.5]])
            np.testing.assert_array_equal(bodies.body(i).A, A)
            own = kernel_operators(A)
            for got, want in zip(bodies._sets, own, strict=True):
                np.testing.assert_array_equal(got[i], want)

    def test_a_failing_constant_normal_fails_where_it_is_evaluated(self):
        rows = [dict(self.ROWS[0], normal=["-1", "1/0"])] + self.ROWS[1:]
        raw = variant(
            ambient_dim=2,
            output_dim=2,
            domain={"boxes": [{"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}]},
            pieces=[
                {"region": ["x1 <= 2"], "body": {"ball": {"center": ["0", "0"], "radius": "1"}}},
                {"region": [], "body": {"hpolytope": {"rows": rows}}},
            ],
        )
        spec = load_spec_dict(raw)  # the second piece is never reached here
        rule = spec.map.pieces[1][1]
        with pytest.raises(EvalDomainError):
            rule(np.zeros((1, 2)))


_ABORT_MESSAGES = {
    "select-michael": "lsc audit failed at (0.0,) (probe (1.0,), deficit 8.281e-01)",
    "select-sandwich":
        "ceiling fails its declared semicontinuity: deficit 5.509e-01 at (0.0,)",
}


@pytest.mark.parametrize("command", sorted(_ABORT_MESSAGES))
def test_audit_aborts_print_plain_coordinates(command, specs_dir, tmp_path, capsys):
    message = _ABORT_MESSAGES[command]
    # violation coordinates used to print as (np.float64(0.0),)
    report = tmp_path / "report.json"
    rc = run_cli(command, "--spec", str(specs_dir / "bad_lsc.json"), "--report", str(report))
    assert rc == 2
    assert capsys.readouterr().err == f"selection: {message}\n"
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["error"]["message"] == message


def test_verify_report_matches_the_golden_bytes(specs_dir, tmp_path, monkeypatch):
    # lsc and ceiling violations in sweep order, with their deficits and
    # probes to the last digit; the golden file predates the edge kernel
    golden = specs_dir.parent / "golden" / "verify_bad_lsc.json"
    report = tmp_path / "report.json"
    monkeypatch.chdir(specs_dir)
    assert run_cli("verify", "--spec", "bad_lsc.json", "--report", str(report)) == 2
    assert report.read_bytes() == golden.read_bytes()


def test_verify_report_matches_the_2d_golden_bytes(specs_dir, tmp_path, monkeypatch):
    # the polytope map's lsc and both continuity[...] entries, as the
    # separate audit calls reported them before the shared sweep
    golden = specs_dir.parent / "golden" / "verify_m_poly.json"
    report = tmp_path / "report.json"
    monkeypatch.chdir(specs_dir)
    assert run_cli("verify", "--spec", "m_poly.json", "--grid", "9", "--report", str(report)) == 0
    assert report.read_bytes() == golden.read_bytes()


def read_golden(specs_dir, name) -> dict:
    return json.loads((specs_dir.parent / "golden" / name).read_text(encoding="utf-8"))


def test_select_sandwich_matches_the_golden_bytes(specs_dir):
    # exit code, CSV, report, stdout and stderr of every fixture at two
    # grids, and of the 1/32 hole, whose evaluation error aborts the run
    seen = golden_runs("select-sandwich", fixture_names("select-sandwich"), (9, 65))
    assert seen == read_golden(specs_dir, "select_sandwich.json")


def test_select_michael_matches_the_golden_bytes(specs_dir):
    # every fixture at grids 9 and 17 and the 1/32 hole; the golden file
    # predates the loop that builds the Michael levels
    seen = golden_runs("select-michael", fixture_names("select-michael"), (9, 17))
    assert seen == read_golden(specs_dir, "select_michael.json")


def test_lns_matches_the_golden_bytes(specs_dir):
    # every fixture at grids 9 and 17 and both holes: the least-norm batch
    # and the membership entry; the golden file predates the body batches
    seen = golden_runs("lns", fixture_names("lns"), (9, 17))
    assert seen == read_golden(specs_dir, "lns.json")


@pytest.mark.parametrize("command", ["envelopes", "verify"])
def test_envelope_commands_match_the_golden_bytes(command, specs_dir):
    # both evaluate the envelopes through the map's batch rule; the golden
    # files were captured from the point-by-point envelopes
    names = fixture_names(command)
    assert len(names) == 11
    seen = golden_runs(command, names, (9, 65))
    assert seen == read_golden(specs_dir, f"{command}.json")


# --- the rules of the CLI's own entries, on crafted arrays ------------------
#
# No golden reaches the failing branches of these entries, so each is pinned
# here as a whole dict.

LINE5 = Grid(load_spec_dict(MINIMAL).domain, 5)  # -1, -0.5, 0, 0.5, 1


def test_membership_entry_names_the_first_point_of_the_largest_distance():
    map_ = load_spec_dict(MINIMAL).map  # T(x) = [0, 2]
    values = np.array([1.0, 3.0, 4.0, 4.0, 1.0])  # distances 0, 1, 2, 2, 0
    assert _membership_entry(map_, values, LINE5, 1e-7) == {
        "name": "membership", "passed": False, "checked": 5,
        "worst_distance": 2.0, "tol": 1e-7,
        "violations": [{"x": [0.0], "deficit": 2.0 - 1e-7, "message": "h(x) sits outside T(x)"}],
        "notes": [],
    }
    assert _membership_entry(map_, np.ones(5), LINE5, 1e-7) == {
        "name": "membership", "passed": True, "checked": 5,
        "worst_distance": 0.0, "tol": 1e-7, "violations": [], "notes": [],
    }


def test_between_envelopes_names_the_first_point_of_the_worst_excess():
    vf, vg = np.zeros(5), np.ones(5)
    vh = np.array([0.5, 2.0, -1.0, 2.0, 0.5])  # excess 1 - 1e-9 at -0.5, 0 and 0.5
    bounds, _ = _envelope_entries(LINE5, vf, vg, vh)
    assert bounds == {
        "name": "between-envelopes", "passed": False, "checked": 5,
        "violations": [{"x": [-0.5], "deficit": 2.0 - 1.0 - 1e-9,
                        "message": "h leaves [f - 1e-9, g + 1e-9]"}],
        "notes": [],
    }
    bounds, _ = _envelope_entries(LINE5, vf, vg, np.full(5, 1.0 + 1e-10))
    assert bounds == {
        "name": "between-envelopes", "passed": True, "checked": 5,
        "violations": [], "notes": [],
    }


def test_strictly_between_names_the_last_of_the_tied_worst_points():
    vf = np.zeros(5)
    vg = np.array([1.0, 1.0, 1.0, 1.0, 0.0])  # no gap at the last point
    vh = np.array([0.5, 1.0, 0.0, 0.3, 0.0])  # touches at -0.5 and 0
    _, strict = _envelope_entries(LINE5, vf, vg, vh)
    assert strict == {
        "name": "strictly-between", "passed": False, "checked": 5,
        "violations": [{"x": [0.0], "deficit": 0.0,
                        "message": "h touches an envelope where g - f > 0.001"}],
        "notes": [],
    }
    # a gap of at most 1e-3 is not checked; no gap at all passes
    vg = np.array([1.0, 1.0, 1.0, 1.0, 1e-3])
    vh = np.array([0.5, 0.5, 0.5, 0.5, 0.0])
    assert _envelope_entries(LINE5, vf, vg, vh)[1]["passed"] is True
    _, strict = _envelope_entries(LINE5, vf, vf, vf)
    assert strict == {
        "name": "strictly-between", "passed": True, "checked": 5,
        "violations": [], "notes": [],
    }


@pytest.mark.parametrize("ratios, passed", [
    ([0.5, 0.8], False),
    ([0.75, None], True),
    ([None, None], True),
])
def test_modulus_ratio_entry_fails_above_the_bound(ratios, passed):
    assert _ratio_entry(ratios, len(ratios)) == {
        "name": "modulus-ratio", "passed": passed, "ratios": ratios, "bound": 0.75,
        "violations": [],
        "notes": ["ratio of largest grid jump across successive halvings; "
                  "null marks an already-flat field"],
    }


@pytest.mark.parametrize("ratios", [
    [0.5, math.nan],
    [math.nan, 0.5],
    [None, math.nan],
    [math.nan, None],
])
def test_modulus_ratio_entry_fails_on_a_nan_ratio_wherever_it_sits(ratios):
    assert _ratio_entry(ratios, len(ratios))["passed"] is False


def test_modulus_ratio_entry_notes_where_refining_stopped():
    assert _ratio_entry([None], 3)["notes"] == [
        "ratio of largest grid jump across successive halvings; null marks an already-flat field",
        "refinement stopped after 1 of 3 halvings: the next halving adds no grid point",
    ]


def test_verify_report_of_an_undeclared_map(tmp_path, monkeypatch):
    # the skipped lsc entry has no eps; the envelopes carry no claim
    (tmp_path / "spec.json").write_text(
        json.dumps(variant(tags={"declared_lsc": False})), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", "--spec", "spec.json", "--grid", "5",
                   "--report", "report.json") == 0

    def audited(name, notes=()):
        return {"name": name, "passed": True, "checked": 5, "eps": 5.0,
                "violations": [], "notes": list(notes)}

    unclaimed = ["no semicontinuity claim to audit"]
    assert json.loads((tmp_path / "report.json").read_text(encoding="utf-8")) == {
        "command": "verify", "spec": "spec.json", "grid": 5, "seed": 6168263,
        "tol": 1e-7, "passed": True,
        "invariants": [
            {"name": "lsc", "passed": True, "checked": 0, "violations": [],
             "notes": ["map not declared lower semicontinuous; skipped"]},
            {**audited("stratification"), "eps": 0.0},
            audited("continuity[everywhere]"),
            audited("floor-unknown-semicontinuity", unclaimed),
            audited("ceiling-unknown-semicontinuity", unclaimed),
        ],
    }


# --- flags, paths and report encoding ----------------------------------------


@pytest.mark.parametrize("command, flag, value", [
    ("select-michael", "--seed", "-1"),  # once numpy's ValueError
    ("verify", "--seed", "-1"),
    ("lns", "--tol", "nan"),  # once a failed membership entry
    ("lns", "--tol", "-1"),
    ("lns", "--tol", "inf"),  # once passed everything
    ("select-michael", "--refine", "-3"),  # once "ratios": []
])
def test_bad_flags_are_input_errors(command, flag, value, specs_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = run_cli(command, "--spec", str(specs_dir / "m_two_stratum.json"), "--grid", "9",
                 flag, value, "--report", str(report))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {flag} ") and "Traceback" not in err
    assert not report.exists()


COMMANDS = ["select-michael", "select-sandwich", "lns", "envelopes", "verify"]


@pytest.mark.parametrize("command, flag", [(c, "--report") for c in COMMANDS]
                         + [(c, "--out") for c in COMMANDS if c != "verify"])
def test_unwritable_paths_are_input_errors(command, flag, specs_dir, tmp_path, capsys):
    path = tmp_path / "missing" / "file"
    rc = run_cli(command, "--spec", str(specs_dir / "m_two_stratum.json"), "--grid", "9",
                 flag, str(path))
    assert rc == 1
    assert capsys.readouterr().err == f"error: cannot write {path}: No such file or directory\n"


def test_an_unwritable_report_on_the_abort_path_is_an_input_error(specs_dir, tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    rc = run_cli("select-michael", "--spec", str(specs_dir / "bad_lsc.json"), "--report", str(path))
    assert rc == 1
    assert capsys.readouterr().err == (
        "selection: lsc audit failed at (0.0,) (probe (1.0,), deficit 8.281e-01)\n"
        f"error: cannot write {path}: No such file or directory\n"
    )


# a ceiling of +inf left of 0, under a declared lsc map: its audit's deficit is inf
INF_CEILING = variant(
    pieces=[{"region": ["x1 < 0"], "body": {"interval": {"lo": "0", "hi": "inf"}}},
            {"region": [], "body": {"interval": {"lo": "0", "hi": "1"}}}],
    tags={"declared_lsc": True},
)

# flat on the --grid 5 lattice, steep between: the first modulus ratio is inf
WIGGLE = "1000*(x1^2 - 1)*(x1^2 - 0.25)*x1"
STEEP_BETWEEN = variant(
    pieces=[{"region": [], "body": {"interval": {"lo": WIGGLE, "hi": f"{WIGGLE} + 1"}}}],
    tags={"declared_lsc": True, "declared_continuous": True},
)


@pytest.mark.parametrize("command, raw, grid, path, value", [
    ("verify", INF_CEILING, "9", ("invariants", 4, "violations", 0, "deficit"), "inf"),
    ("select-michael", STEEP_BETWEEN, "5", ("invariants", 2, "ratios"), ["inf", 1.03125]),
])
def test_reports_encode_non_finite_numbers_as_strings(command, raw, grid, path, value, tmp_path):
    spec, report = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(json.dumps(raw), encoding="utf-8")
    assert run_cli(command, "--spec", str(spec), "--grid", grid, "--report", str(report)) == 2
    got = strict_json(report.read_text(encoding="utf-8"))
    for key in path:
        got = got[key]
    assert got == value


def test_the_csv_is_the_per_value_rendering(tmp_path):
    # one %-format for the whole table writes what "%.17g" writes per value
    special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e300, -1e300,
               3.0, -7.0, 2.0**53, 0.1, 1 / 3]
    domain = Domain(1, points=[(c,) for c in special])
    grid = Grid(domain, 2)
    values = np.column_stack([special[::-1], np.arange(len(special), dtype=float) - 4.0])
    out = tmp_path / "h.csv"
    _write_csv(str(out), grid, values, ["h1", "h2"])
    rows = np.column_stack((grid.points, values)).tolist()
    want = "x1,h1,h2\n" + "".join(",".join("%.17g" % c for c in row) + "\n" for row in rows)
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("command,name,flags,size", [
    ("select-sandwich", "s_mixed", ["--grid", "9", "--refine", "60"], "9223372036854775809"),
    ("select-sandwich", "s_mixed", ["--grid", "2049", "--refine", "11"], "4194305"),
    ("select-michael", "m_poly", ["--grid", "1025", "--refine", "1"], "4198401"),
    ("select-michael", "m_poly", ["--grid", "9", "--refine", "100"], "more than 2^64"),
    ("lns", "m_ball", ["--grid", "3000"], "9000000"),
    ("envelopes", "s_mixed", ["--grid", "4194305"], "4194305"),
    ("verify", "m_ball", ["--grid", "10" + "0" * 40, "--refine", "0"], "more than 2^64"),
])
def test_a_grid_past_the_limit_exits_one_before_any_grid_is_built(
    command, name, flags, size, specs_dir, tmp_path, monkeypatch, capsys
):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "Grid", no_grid)
    report = tmp_path / "report.json"
    rc = run_cli(command, "--spec", str(specs_dir / f"{name}.json"), *flags,
                 "--report", str(report))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --grid and --refine ask for a grid of {size} points, more than 4194304\n"
    )
    assert not report.exists()


@pytest.mark.parametrize("command", ["lns", "envelopes", "verify"])
def test_refine_does_not_count_where_nothing_is_refined(command, specs_dir):
    assert run_cli(command, "--spec", str(specs_dir / "s_mixed.json"),
                   "--grid", "9", "--refine", "60") == 0


def test_sandwich_evaluates_h_only_at_the_points_each_halving_adds(
    specs_dir, tmp_path, monkeypatch
):
    # h on the output grid comes from the construction, and the refined
    # grids of the modulus report evaluate 64 + 128 new points (the full
    # grids would be 65 + 129 + 257 = 451 rows)
    rows = []
    select = cli.sandwich_select

    def counted(*args, **kwargs):
        h, trace = select(*args, **kwargs)
        batch = h.batch
        return dataclasses.replace(h, batch=lambda X: (rows.append(len(X)), batch(X))[1]), trace

    monkeypatch.setattr(cli, "sandwich_select", counted)
    assert run_cli("select-sandwich", "--spec", str(specs_dir / "s_mixed.json"),
                   "--grid", "65", "--out", str(tmp_path / "h.csv")) == 0
    assert rows == [64, 128]


def test_sandwich_evaluates_the_map_once_for_both_envelopes(specs_dir, tmp_path, monkeypatch):
    # the construction, the CLI's envelope checks and the region audit read
    # both envelopes on the output grid, and h on each refined grid reads
    # them on its new points: one coord_bounds_many call for each point set
    # (at the parent, one for each envelope and each reader: 10 calls)
    rows = []
    bounds = SetValuedMap.coord_bounds_many

    def counted(self, X):
        rows.append(len(X))
        return bounds(self, X)

    monkeypatch.setattr(SetValuedMap, "coord_bounds_many", counted)
    assert run_cli("select-sandwich", "--spec", str(specs_dir / "s_mixed.json"),
                   "--grid", "65", "--out", str(tmp_path / "h.csv")) == 0
    assert rows == [65, 64, 128]


@pytest.mark.parametrize("command", ["select-michael", "select-sandwich"])
def test_refining_isolated_points_stops_at_once_and_says_so(command, tmp_path, monkeypatch):
    # no halving adds a point to a domain of isolated points, so no refined
    # grid is built, however many halvings --refine asks for
    raw = variant(domain={"points": [[0.0], [0.5], [2.0]]},
                  tags={"declared_lsc": True, "declared_continuous": True})
    (tmp_path / "spec.json").write_text(json.dumps(raw), encoding="utf-8")

    def refined(self):
        raise AssertionError("a refined grid was built")

    monkeypatch.setattr(Grid, "refined", refined)
    report = tmp_path / "report.json"
    assert run_cli(command, "--spec", str(tmp_path / "spec.json"), "--grid", "9",
                   "--refine", "40", "--report", str(report)) == 0
    entry = json.loads(report.read_text(encoding="utf-8"))["invariants"][-1]
    assert entry["name"] == "modulus-ratio" and entry["passed"]
    assert entry["ratios"] == []
    assert entry["notes"][1:] == [
        "refinement stopped after 0 of 40 halvings: the next halving adds no grid point"]


def test_any_non_negative_seed_runs_and_repeats(specs_dir, tmp_path):
    # a seed past 2^64 has more than one 64-bit word; every word keys the
    # probe stream (it once raised OverflowError in a uint64 conversion)
    reports = []
    for run in range(2):
        report = tmp_path / f"report{run}.json"
        assert run_cli("verify", "--spec", str(specs_dir / "m_poly.json"),
                       "--seed", str(2**70), "--report", str(report)) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["seed"] == 2**70
