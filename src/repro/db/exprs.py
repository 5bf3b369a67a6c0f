"""Expression compilation: AST -> Python closures.

Expressions are compiled once per (statement, schema) by the planner and
cached with the statement plan -- the executor never calls
:func:`compile_expr` -- so per-row evaluation is a plain closure call.
The environment is a dict mapping table alias -> current row (a list);
SQL NULL is Python ``None`` and any comparison against it is false,
which is the practically-relevant slice of three-valued logic for the
benchmark queries.

Aggregate queries compile in two parts: one :class:`AggSpec` per
distinct aggregate call (argument closure, accumulator step, finalizer)
and, for the select list and HAVING, closures from
:func:`compile_agg_expr` that also take the finalized aggregate values
of the group being emitted.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.db.errors import SqlError
from repro.db.sql import nodes as n

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_CMP = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_LIKE_CACHE: Dict[str, re.Pattern] = {}


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to a compiled regex (cached)."""
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        compiled = re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)
        _LIKE_CACHE[pattern] = compiled
    return compiled


class Resolver:
    """Resolves column references to (alias, position) pairs."""

    def __init__(self, tables: Dict[str, object]):
        # alias -> Table (storage object with column_pos / schema)
        self.tables = tables

    def resolve(self, ref: n.ColumnRef):
        if ref.table is not None:
            table = self.tables.get(ref.table)
            if table is None:
                raise SqlError(f"unknown table alias {ref.table!r}")
            return ref.table, table.column_pos(ref.column)
        hits = [
            (alias, table.column_pos(ref.column))
            for alias, table in self.tables.items()
            if table.schema.has_column(ref.column)]
        if not hits:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise SqlError(f"ambiguous column {ref.column!r}")
        return hits[0]


def compile_expr(expr, resolver: Resolver) -> Callable:
    """Compile to ``fn(env, params) -> value``."""
    if isinstance(expr, n.Literal):
        value = expr.value
        return lambda env, params: value
    if isinstance(expr, n.Param):
        index = expr.index
        return lambda env, params: params[index]
    if isinstance(expr, n.ColumnRef):
        alias, pos = resolver.resolve(expr)
        return lambda env, params: env[alias][pos]
    if isinstance(expr, n.BinaryOp):
        left = compile_expr(expr.left, resolver)
        right = compile_expr(expr.right, resolver)
        if expr.op in _ARITH:
            fn = _ARITH[expr.op]

            def arith(env, params):
                lv = left(env, params)
                rv = right(env, params)
                if lv is None or rv is None:
                    return None
                return fn(lv, rv)
            return arith
        fn = _CMP[expr.op]

        def compare(env, params):
            lv = left(env, params)
            rv = right(env, params)
            if lv is None or rv is None:
                return False
            return fn(lv, rv)
        return compare
    if isinstance(expr, n.BoolOp):
        compiled = [compile_expr(op, resolver) for op in expr.operands]
        if expr.op == "AND":
            def conj(env, params):
                for fn in compiled:
                    if not fn(env, params):
                        return False
                return True
            return conj

        def disj(env, params):
            for fn in compiled:
                if fn(env, params):
                    return True
            return False
        return disj
    if isinstance(expr, n.NotOp):
        inner = compile_expr(expr.operand, resolver)
        return lambda env, params: not inner(env, params)
    if isinstance(expr, n.LikeOp):
        operand = compile_expr(expr.operand, resolver)
        pattern = compile_expr(expr.pattern, resolver)
        negated = expr.negated

        def like(env, params):
            value = operand(env, params)
            pat = pattern(env, params)
            if value is None or pat is None:
                return False
            hit = like_to_regex(pat).match(str(value)) is not None
            return hit != negated
        return like
    if isinstance(expr, n.InOp):
        operand = compile_expr(expr.operand, resolver)
        choices = [compile_expr(c, resolver) for c in expr.choices]
        negated = expr.negated

        def contains(env, params):
            value = operand(env, params)
            if value is None:
                return False
            hit = any(value == c(env, params) for c in choices)
            return hit != negated
        return contains
    if isinstance(expr, n.BetweenOp):
        operand = compile_expr(expr.operand, resolver)
        low = compile_expr(expr.low, resolver)
        high = compile_expr(expr.high, resolver)
        negated = expr.negated

        def between(env, params):
            value = operand(env, params)
            lo = low(env, params)
            hi = high(env, params)
            if value is None or lo is None or hi is None:
                return False
            hit = lo <= value <= hi
            return hit != negated
        return between
    if isinstance(expr, n.IsNullOp):
        operand = compile_expr(expr.operand, resolver)
        negated = expr.negated

        def is_null(env, params):
            return (operand(env, params) is None) != negated
        return is_null
    if isinstance(expr, n.Aggregate):
        raise SqlError("aggregate used outside of a select list / HAVING")
    raise SqlError(f"cannot compile expression node {expr!r}")


def sort_key(value):
    """Total-orderable key: None first, then numbers, then strings."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, bool):
        return (1, int(value), "")
    if isinstance(value, (int, float)):
        return (1, value, "")
    return (2, 0, str(value))


# -- aggregates ----------------------------------------------------------------
#
# An accumulator is the list [count, sum, min, max, distinct_set]; every
# aggregate function reads its answer out of the same shape, so a step
# function only maintains the slots its finalizer reads.

def _step_count(acc: list, value) -> None:
    acc[0] += 1


def _step_sum(acc: list, value) -> None:
    acc[0] += 1
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        acc[1] += value


# Types whose native ``<`` agrees with sort_key (bool is not one).
_NATIVE_ORDER = frozenset((int, float, str))


def _sorts_before(a, b) -> bool:
    cls = type(a)
    if cls is type(b) and cls in _NATIVE_ORDER:
        return a < b
    return sort_key(a) < sort_key(b)


def _step_min(acc: list, value) -> None:
    if acc[2] is None or _sorts_before(value, acc[2]):
        acc[2] = value


def _step_max(acc: list, value) -> None:
    if acc[3] is None or _sorts_before(acc[3], value):
        acc[3] = value


# func -> (step, finalize); SUM/AVG of no non-NULL input is NULL.
_AGGREGATES = {
    "COUNT": (_step_count, lambda acc: acc[0]),
    "SUM": (_step_sum, lambda acc: acc[1] if acc[0] else None),
    "MIN": (_step_min, lambda acc: acc[2]),
    "MAX": (_step_max, lambda acc: acc[3]),
    "AVG": (_step_sum, lambda acc: acc[1] / acc[0] if acc[0] else None),
}


@dataclass(frozen=True)
class AggSpec:
    """One aggregate call of a statement, compiled.

    ``arg_fn`` is None for ``COUNT(*)``, which counts rows; every other
    aggregate skips NULL arguments and, with ``distinct``, repeats.
    """

    arg_fn: Optional[Callable]
    distinct: bool
    step: Callable
    finalize: Callable

    def new_acc(self) -> list:
        return [0, 0.0, None, None, set() if self.distinct else None]


def compile_aggregate(agg: n.Aggregate, resolver: Resolver) -> AggSpec:
    try:
        step, finalize = _AGGREGATES[agg.func]
    except KeyError:
        raise SqlError(f"unknown aggregate {agg.func!r}") from None
    arg_fn = compile_expr(agg.arg, resolver) if agg.arg is not None else None
    return AggSpec(arg_fn=arg_fn, distinct=agg.distinct, step=step,
                   finalize=finalize)


def collect_aggregates(expr, out: list) -> None:
    """Append the distinct Aggregate nodes ``compile_agg_expr`` can reach
    (through arithmetic and comparisons) to ``out``."""
    if isinstance(expr, n.Aggregate):
        if expr not in out:
            out.append(expr)
    elif isinstance(expr, n.BinaryOp):
        collect_aggregates(expr.left, out)
        collect_aggregates(expr.right, out)


def compile_agg_expr(expr, resolver: Resolver, slots: Dict) -> Callable:
    """Compile a select-list / HAVING expression of an aggregate query to
    ``fn(env, params, agg_values) -> value``.

    ``slots`` maps each Aggregate node to its position in ``agg_values``;
    ``env`` is the first joined row of the group.  Division by zero
    yields NULL here, as MySQL's does.
    """
    if isinstance(expr, n.Aggregate):
        slot = slots[expr]
        return lambda env, params, agg_values: agg_values[slot]
    if isinstance(expr, n.BinaryOp):
        left = compile_agg_expr(expr.left, resolver, slots)
        right = compile_agg_expr(expr.right, resolver, slots)
        if expr.op in _ARITH:
            fn = _ARITH[expr.op]
            divides = expr.op == "/"

            def arith(env, params, agg_values):
                lv = left(env, params, agg_values)
                rv = right(env, params, agg_values)
                if lv is None or rv is None or (divides and not rv):
                    return None
                return fn(lv, rv)
            return arith
        fn = _CMP[expr.op]

        def compare(env, params, agg_values):
            lv = left(env, params, agg_values)
            rv = right(env, params, agg_values)
            if lv is None or rv is None:
                return False
            return fn(lv, rv)
        return compare
    plain = compile_expr(expr, resolver)
    return lambda env, params, agg_values: plain(env, params)


def expr_has_aggregate(expr) -> bool:
    """True if the expression tree contains an Aggregate node."""
    if isinstance(expr, n.Aggregate):
        return True
    if isinstance(expr, n.BinaryOp):
        return expr_has_aggregate(expr.left) or expr_has_aggregate(expr.right)
    if isinstance(expr, n.BoolOp):
        return any(expr_has_aggregate(op) for op in expr.operands)
    if isinstance(expr, (n.NotOp, n.IsNullOp)):
        return expr_has_aggregate(expr.operand)
    if isinstance(expr, n.LikeOp):
        return expr_has_aggregate(expr.operand)
    if isinstance(expr, n.BetweenOp):
        return any(expr_has_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, n.InOp):
        return expr_has_aggregate(expr.operand) or \
            any(expr_has_aggregate(c) for c in expr.choices)
    return False


def expr_column_refs(expr, out: Optional[list] = None) -> list:
    """Collect every ColumnRef in the tree (pre-order)."""
    if out is None:
        out = []
    if isinstance(expr, n.ColumnRef):
        out.append(expr)
    elif isinstance(expr, n.BinaryOp):
        expr_column_refs(expr.left, out)
        expr_column_refs(expr.right, out)
    elif isinstance(expr, n.BoolOp):
        for op in expr.operands:
            expr_column_refs(op, out)
    elif isinstance(expr, (n.NotOp, n.IsNullOp)):
        expr_column_refs(expr.operand, out)
    elif isinstance(expr, n.LikeOp):
        expr_column_refs(expr.operand, out)
        expr_column_refs(expr.pattern, out)
    elif isinstance(expr, n.BetweenOp):
        expr_column_refs(expr.operand, out)
        expr_column_refs(expr.low, out)
        expr_column_refs(expr.high, out)
    elif isinstance(expr, n.InOp):
        expr_column_refs(expr.operand, out)
        for c in expr.choices:
            expr_column_refs(c, out)
    elif isinstance(expr, n.Aggregate) and expr.arg is not None:
        expr_column_refs(expr.arg, out)
    return out
