import math

import numpy as np
import pytest

from conftest import random_ast, ref_eval
from convsel.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError
from convsel.specio.expr import (
    Binary,
    Const,
    Pow,
    Unary,
    Var,
    evaluate,
    evaluate_many,
    max_var_index,
    parse_expr,
    to_source,
)


def ev(src, *point):
    return evaluate(parse_expr(src), point)


class TestParsing:
    def test_precedence_mul_over_add(self):
        assert ev("2+3*4") == 14.0

    def test_precedence_pow_over_mul(self):
        assert ev("2*3^2") == 18.0

    def test_pow_binds_tighter_than_unary_minus(self):
        assert ev("-x1^2", 2.0) == -4.0

    def test_parentheses(self):
        assert ev("(1+2)*3") == 9.0

    def test_negative_exponent(self):
        assert ev("2^-1") == 0.5

    def test_left_associative_sub(self):
        assert ev("8-3-2") == 3.0

    def test_div_chain(self):
        assert ev("16/4/2") == 2.0

    def test_unary_stacking(self):
        assert ev("--3") == 3.0

    def test_functions(self):
        assert ev("sqrt(1+x1^2)", 0.0) == 1.0
        assert ev("min(x1, 2*x2+1)", 3.0, 0.5) == 2.0
        assert ev("max(1, 2)") == 2.0
        assert ev("abs(0-2.5)") == 2.5

    def test_variables_are_one_based(self):
        node = parse_expr("x1 + x3")
        assert max_var_index(node) == 2
        assert evaluate(node, (1.0, 99.0, 2.0)) == 3.0

    def test_scientific_notation(self):
        assert ev("1.5e2") == 150.0
        assert ev("2E-3") == 0.002

    def test_whitespace_insensitive(self):
        assert parse_expr(" 1 + 2 * x1 ") == parse_expr("1+2*x1")

    def test_evaluate_many(self):
        node = parse_expr("x1*x2")
        got = evaluate_many(node, np.array([[3.0, 4.0], [-0.5, 2.0]]))
        np.testing.assert_array_equal(got, [12.0, -1.0])
        assert evaluate(node, (3.0, 4.0)) == 12.0


class TestErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1+")
        assert err.value.offset == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse_expr("foo(3)")
        assert err.value.offset == 0

    def test_unknown_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("y1 + 1")
        with pytest.raises(UnknownIdentifierError):
            parse_expr("x0")  # indices start at 1

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 @ 2")
        assert err.value.offset == 2

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("(1+2")
        assert err.value.offset == 4

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("")
        assert err.value.offset == 0

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("1 2")
        assert err.value.offset == 2

    def test_min_arity(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("min(1)")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1^2.5")

    def test_offset_in_message(self):
        with pytest.raises(ExprSyntaxError, match="offset 2"):
            parse_expr("1+")

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ev("1/x1", 0.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalDomainError):
            ev("sqrt(0-1)")

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            ev("x1^-1", 0.0)

    def test_var_beyond_point(self):
        with pytest.raises(EvalDomainError):
            ev("x2", 1.0)


# Ten malformed inputs whose reported offsets are part of the contract:
# error positions must stay put across releases.
GOLDEN_ERRORS = [
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


@pytest.mark.parametrize("src,offset", GOLDEN_ERRORS)
def test_golden_error_positions(src, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(src)
    assert err.value.offset == offset, src


class TestRoundTrip:
    CORPUS = [
        "1+2*3",
        "-x1^2",
        "min(x1, max(x2, 0.5))",
        "sqrt(abs(x1-x2))",
        "(x1+1)/(x2-1)",
        "2^-3 * x1",
        "1.5e2 - 0.25",
        "abs(-(x1))",
    ]

    @pytest.mark.parametrize("src", CORPUS)
    def test_parse_print_parse(self, src):
        first = parse_expr(src)
        assert parse_expr(to_source(first)) == first

    def test_random_asts_round_trip(self):
        rng = np.random.default_rng(0xA57)
        for _ in range(300):
            node = random_ast(rng, depth=5, n_vars=3)
            assert parse_expr(to_source(node)) == node


class TestReferenceEvaluator:
    def test_thousand_random_asts_within_one_ulp(self):
        rng = np.random.default_rng(0x0A57)
        clean = 0
        tried = 0
        while clean < 1000:
            tried += 1
            assert tried < 20_000, "generator starved"
            node = random_ast(rng, depth=int(rng.integers(1, 7)), n_vars=3)
            point = tuple(rng.uniform(-3, 3, size=3))
            try:
                mine = evaluate(node, point)
            except EvalDomainError:
                with pytest.raises(ArithmeticError):
                    ref_eval(node, point)
                continue
            try:
                theirs = ref_eval(node, point)
            except (ArithmeticError, OverflowError):
                pytest.fail(f"reference raised where evaluate succeeded: {node}")
            if math.isnan(mine) or math.isinf(mine):
                # overflow products compare by identity of the special value
                assert str(mine) == str(theirs)
                clean += 1
                continue
            ulp = math.ulp(max(abs(mine), abs(theirs), 1e-300))
            assert abs(mine - theirs) <= ulp, (node, point, mine, theirs)
            clean += 1


def test_ast_structural_equality():
    a = Binary("add", Const(1.0), Unary("neg", Var(0)))
    b = Binary("add", Const(1.0), Unary("neg", Var(0)))
    assert a == b
    assert a != Binary("add", Const(1.0), Var(0))
    assert Pow(Var(0), 2) == Pow(Var(0), 2)
