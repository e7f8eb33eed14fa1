"""Problem files, the expression language, and the command-line driver."""

from convsel.specio.expr import evaluate, evaluate_many, parse_expr, to_source
from convsel.specio.loader import ProblemSpec, load_spec, load_spec_dict

__all__ = [
    "ProblemSpec",
    "evaluate",
    "evaluate_many",
    "load_spec",
    "load_spec_dict",
    "parse_expr",
    "to_source",
]
