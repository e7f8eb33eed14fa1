"""The search of a failing batch by halves against the search one row at a
time of ``reference.fields_pointwise.outermost_many_by_rows``.

A batch that fails in the outermost ``many`` is searched by halves: the
outcome must be the oracle's, the values bit for bit or the same
exception type and message, and a rule that fails just where a batch
holds a failing row is called at most 2⌈log₂ N⌉ + 1 times.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convsel import fields, maps
from convsel.errors import EvalDomainError
from convsel.fields import EVAL_ERRORS, Domain, ScalarField
from convsel.geometry import IntervalBatch
from convsel.maps import EVERYWHERE, SetValuedMap
from reference.fields_pointwise import outermost_many_by_rows

#: Points (i, v): the row's number and a value, inside this box.
BOX = Domain(2, boxes=(((0.0, -8.0), (80.0, 8.0)),))

#: What a failing row may raise.
KINDS = (ValueError, ZeroDivisionError, EvalDomainError)


def failing_at(bad: dict, calls: list | None = None):
    """A batch rule that fails where a batch holds a row of ``bad`` (row
    number to exception type), with the message of the last such row, so
    only a search names the first."""

    def batch(X):
        if calls is not None:
            calls.append(X.shape[0])
        rows = [int(i) for i in X[:, 0] if int(i) in bad]
        if rows:
            raise bad[rows[-1]](f"row {rows[-1]}")
        return X[:, 1] * 0.3 - 1.0

    return batch


def failing_on_batches(bad: dict):
    """A batch rule that fails on every batch of more than one row, and
    one row at a time as :func:`failing_at` does."""
    alone = failing_at(bad)

    def batch(X):
        if X.shape[0] > 1:
            raise ValueError(f"a batch of {X.shape[0]} rows")
        return alone(X)

    return batch


def nested(inner_bad: dict, outer_bad: dict):
    """A batch rule that reads a field by ``many`` inside its own batch,
    and then fails as :func:`failing_at` does on ``outer_bad``."""
    inner = ScalarField(BOX, batch=failing_at(inner_bad))
    outer = failing_at(outer_bad)

    def batch(X):
        values = inner.many(X)
        return outer(X) + 2.0 * values

    return batch


def through(container: str, rule):
    """``rule`` read by a field's ``many``, or as the lower ends of a
    map's intervals by ``evaluate_many``."""
    if container == "field":
        return ScalarField(BOX, batch=rule).many

    def bodies(X):
        lo = rule(X)
        return IntervalBatch(lo, lo + 1.0)

    T = SetValuedMap(BOX, 1, ((EVERYWHERE, bodies),))
    return lambda X: T.evaluate_many(X).coord_extremes()


def outcome(run, X) -> tuple:
    """The values' bits, or the exception's type and message."""
    try:
        got = run(X)
    except EVAL_ERRORS as exc:
        return type(exc), str(exc)
    arrays = got if isinstance(got, tuple) else (got,)
    return tuple(np.ascontiguousarray(a, dtype=float).view(np.uint64).tolist() for a in arrays)


def by_rows(run, X) -> tuple:
    """:func:`outcome` with every ``many`` searching one row at a time."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (fields, maps):
            mp.setattr(module, "_outermost_many", outermost_many_by_rows)
        return outcome(run, X)


def bad_rows(data, count: int) -> dict:
    rows = data.draw(st.lists(st.integers(0, max(count - 1, 0)), max_size=4, unique=True))
    return {i: data.draw(st.sampled_from(KINDS)) for i in rows if i < count}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_drawn_rules_fail_as_the_row_by_row_oracle(data):
    count = data.draw(st.integers(0, 80))
    values = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=count, max_size=count))
    X = np.column_stack([np.arange(count, dtype=float), values]).reshape(count, 2)
    kind = data.draw(st.sampled_from(["rows", "batches", "nested"]))
    container = data.draw(st.sampled_from(["field", "map"]))
    calls = []
    if kind == "rows":
        rule = failing_at(bad_rows(data, count), calls)
    elif kind == "batches":
        rule = failing_on_batches(bad_rows(data, count))
    else:
        rule = nested(bad_rows(data, count), bad_rows(data, count))
    run = through(container, rule)
    got = outcome(run, X)
    if kind == "rows":
        assert len(calls) <= 2 * math.ceil(math.log2(max(count, 1))) + 1
    assert got == by_rows(run, X)


def test_a_rule_failing_on_every_batch_is_joined_from_its_rows():
    # no row fails alone: the halves' bodies are put back together
    X = np.column_stack([np.arange(7.0), np.linspace(-1.0, 1.0, 7)])
    run = through("map", failing_on_batches({}))
    got = outcome(run, X)
    assert got == by_rows(run, X)
    assert got[0] == (X[:, 1:] * 0.3 - 1.0).view(np.uint64).tolist()
