"""Query planning: conjunct analysis, access-path and join-order selection.

The planner is deliberately at the sophistication level of MySQL 3.23:
left-deep nested-loop joins in FROM order, single-index access paths
chosen by longest equality prefix, a range path on a sorted index, and an
index-order scan to avoid sorting for ``ORDER BY indexed_col LIMIT n``.
Because nested-loop joins preserve outer order, index-ordered plans stay
valid through joins and support early termination at the LIMIT.

A plan is everything an execution needs, already compiled: the row-id
source and row-accounting key of every access path, the projection,
sort keys, aggregate descriptors, HAVING and INSERT value closures.  The
executor only calls closures (see :mod:`repro.db.exprs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.db.errors import SqlError
from repro.db.exprs import (
    AggSpec,
    Resolver,
    collect_aggregates,
    compile_agg_expr,
    compile_aggregate,
    compile_expr,
    expr_column_refs,
    expr_has_aggregate,
)
from repro.db.index import HashIndex, SortedIndex
from repro.db.sql import nodes as n
from repro.db.storage import Table


@dataclass
class AccessPath:
    """How one table (alias) is accessed inside the pipeline."""

    alias: str
    table: Table
    kind: str                      # "scan" | "index_eq" | "index_range" | "index_order"
    index: object = None
    # For index_eq on a sorted index whose next column matches the
    # query's ORDER BY: rows come out pre-ordered (MySQL-style
    # "equality prefix + order column" optimization).
    ordered: bool = False
    # For index_eq: functions computing the probe key (env, params) -> value.
    key_fns: Tuple[Callable, ...] = ()
    # For index_range (single leading column):
    low_fn: Optional[Callable] = None
    high_fn: Optional[Callable] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    descending: bool = False
    # Residual single-alias predicate applied right after the fetch.
    filter_fn: Optional[Callable] = None
    # Derived from the fields above, once, for the executor:
    # ``rowids(env, params)`` iterates the candidate row ids in path
    # order; examined rows are counted under ``examined_key`` in
    # ExecStats.rows_examined_scan (``examined_scan``) or _index.
    rowids: Callable = field(init=False, repr=False)
    examined_scan: bool = field(init=False)
    examined_key: object = field(init=False)
    null_row: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.rowids = _rowid_source(self)
        self.examined_scan = self.kind == "scan"
        if self.examined_scan:
            self.examined_key = self.table.name
        elif self.kind == "index_order" or self.ordered:
            # Ordered accesses are LIMIT-bounded by early termination,
            # so their examined count is limit-driven, not
            # selectivity-driven: recorded unscaled (lead None) for the
            # cost model.
            self.examined_key = (self.table.name, None)
        else:
            self.examined_key = (self.table.name, self.index.columns[0])
        # What a LEFT JOIN binds the alias to when nothing matched.
        self.null_row = (None,) * len(self.table.schema.columns)


def _rowid_source(path: AccessPath) -> Callable:
    """The one access-path dispatch: SELECT, UPDATE and DELETE all draw
    candidate row ids from the closure built here."""
    index = path.index
    if path.kind == "index_eq":
        key_fns = path.key_fns
        if len(key_fns) < len(index.columns):
            # Only a sorted index is planned with a partial key.
            prefix = index.prefix
            if path.ordered and path.descending:
                def rowids(env, params):
                    found = prefix(tuple([fn(env, params) for fn in key_fns]))
                    found.reverse()
                    return found
                return rowids
            return lambda env, params: prefix(
                tuple([fn(env, params) for fn in key_fns]))
        lookup = index.lookup
        if len(key_fns) == 1:
            key_fn = key_fns[0]
            return lambda env, params: lookup((key_fn(env, params),))
        return lambda env, params: lookup(
            tuple([fn(env, params) for fn in key_fns]))
    if path.kind == "index_range":
        low_fn, high_fn = path.low_fn, path.high_fn
        low_inc, high_inc = path.low_inclusive, path.high_inclusive
        scan_range = index.range

        def rowids(env, params):
            low = (low_fn(env, params),) if low_fn else None
            high = (high_fn(env, params),) if high_fn else None
            return scan_range(low, high, low_inc, high_inc)
        return rowids
    if path.kind == "index_order":
        scan_index = index.scan
        descending = path.descending
        return lambda env, params: scan_index(descending=descending)
    scan_table = path.table.scan
    return lambda env, params: scan_table()


@dataclass
class SelectPlan:
    paths: List[AccessPath]
    post_filter: Optional[Callable]
    outer_flags: List[bool]
    output_names: List[str]
    # Projection, one closure per output column: ``fn(env, params)``, or
    # ``fn(env, params, agg_values)`` when ``has_aggregates``.
    item_fns: Tuple[Callable, ...]
    has_aggregates: bool
    group_fns: Tuple[Callable, ...]
    aggregates: Tuple[AggSpec, ...]
    having_fn: Optional[Callable]       # fn(env, params, agg_values)
    # ORDER BY that the access path does not already deliver, as
    # (key, descending) pairs, most significant first.  ``key`` is a
    # closure over the joined row, or for an aggregate query the
    # position of the projected column.  None: the statement has an
    # ORDER BY this engine cannot evaluate (reported at execution).
    needs_sort: bool
    sort_keys: Optional[Tuple[Tuple[object, bool], ...]]
    ordered_by_index: bool
    limit_fn: Optional[Callable]
    offset_fn: Optional[Callable]
    distinct: bool
    tables_read: Tuple[str, ...] = ()
    # The whole statement is one full-key equality probe of a unique
    # index plus a projection (no aggregate, sort, DISTINCT, LIMIT or
    # post-filter): the executor serves it without the row pipeline.
    # Set from the plan's shape alone; clearing it selects the
    # pipeline, with identical results.
    probe: bool = False


@dataclass
class DmlPlan:
    """Plan for UPDATE/DELETE: one access path plus compiled pieces."""

    path: AccessPath
    assignments: List[Tuple[str, Callable]] = field(default_factory=list)
    tables: Tuple[str, ...] = ()        # read and written: the one table


@dataclass
class InsertPlan:
    """Plan for INSERT: target table, column names, value closures."""

    table: Table
    columns: Tuple[str, ...]
    value_fns: Tuple[Callable, ...]
    # No column list in the statement: the values must cover every
    # column (checked at execution, after the lock check).
    positional: bool


def split_conjuncts(expr) -> List[object]:
    """Flatten a top-level AND tree into a conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, n.BoolOp) and expr.op == "AND":
        out: List[object] = []
        for op in expr.operands:
            out.extend(split_conjuncts(op))
        return out
    return [expr]


def _aliases_of(expr, resolver: Resolver) -> set:
    aliases = set()
    for ref in expr_column_refs(expr):
        alias, __ = resolver.resolve(ref)
        aliases.add(alias)
    return aliases


def _equality_parts(conjunct) -> Optional[Tuple[n.ColumnRef, object]]:
    """If the conjunct is ``col = expr`` (either side), return (col, expr)."""
    if not (isinstance(conjunct, n.BinaryOp) and conjunct.op == "="):
        return None
    if isinstance(conjunct.left, n.ColumnRef):
        return conjunct.left, conjunct.right
    if isinstance(conjunct.right, n.ColumnRef):
        return conjunct.right, conjunct.left
    return None


_RANGE_OPS = {"<": (False, "high"), "<=": (True, "high"),
              ">": (False, "low"), ">=": (True, "low")}


class Planner:
    """Plans SELECT/UPDATE/DELETE statements against a table catalog."""

    def __init__(self, tables: Dict[str, Table]):
        self.catalog = tables

    def _table(self, name: str) -> Table:
        table = self.catalog.get(name)
        if table is None:
            raise SqlError(f"unknown table {name!r}")
        return table

    # -- SELECT ----------------------------------------------------------------

    def plan_select(self, stmt: n.Select) -> SelectPlan:
        if stmt.table is None:
            raise SqlError("SELECT without FROM is not supported")
        refs = [stmt.table] + [j.table for j in stmt.joins]
        alias_tables: Dict[str, Table] = {}
        for ref in refs:
            if ref.alias in alias_tables:
                raise SqlError(f"duplicate table alias {ref.alias!r}")
            alias_tables[ref.alias] = self._table(ref.name)
        resolver = Resolver(alias_tables)

        outer_aliases = {join.table.alias for join in stmt.joins
                         if join.outer}
        single: Dict[str, List[object]] = {ref.alias: [] for ref in refs}
        multi: List[object] = []
        # WHERE predicates evaluate *after* outer joins, so any WHERE
        # conjunct touching a LEFT-JOINed alias must stay a post-join
        # filter (pushing it into the access path would turn "no match"
        # into "match filtered out" and fabricate NULL rows).  ON
        # conjuncts, by contrast, belong to the join itself.
        post_only: List[object] = []
        for conjunct in split_conjuncts(stmt.where):
            aliases = _aliases_of(conjunct, resolver)
            if aliases & outer_aliases:
                post_only.append(conjunct)
            elif len(aliases) == 1:
                single[next(iter(aliases))].append(conjunct)
            else:
                multi.append(conjunct)
        for join in stmt.joins:
            for conjunct in split_conjuncts(join.condition):
                aliases = _aliases_of(conjunct, resolver)
                if len(aliases) == 1:
                    single[next(iter(aliases))].append(conjunct)
                else:
                    multi.append(conjunct)

        # Index-order opportunity on the driving table.
        order_alias_col = None
        has_aggs = any(
            item.expr is not None and expr_has_aggregate(item.expr)
            for item in stmt.items) or bool(stmt.group_by)
        if stmt.order_by and not has_aggs:
            first = stmt.order_by[0]
            if len(stmt.order_by) == 1 and isinstance(first.expr, n.ColumnRef):
                try:
                    alias, __ = resolver.resolve(first.expr)
                except SqlError:
                    alias = None
                if alias == refs[0].alias:
                    order_alias_col = (first.expr.column, first.descending)

        paths: List[AccessPath] = []
        outer_flags: List[bool] = []
        bound = set()
        for ref_pos, ref in enumerate(refs):
            alias = ref.alias
            table = alias_tables[alias]
            own = list(single[alias])
            join_eq: List[Tuple[str, object]] = []
            if ref_pos > 0:
                remaining = []
                for conjunct in multi:
                    pair = self._bindable_equality(conjunct, resolver,
                                                   alias, bound)
                    if pair is not None:
                        join_eq.append(pair)
                    else:
                        remaining.append(conjunct)
                multi = remaining
            order_hint = order_alias_col if ref_pos == 0 else None
            path = self._choose_path(alias, table, resolver, own, join_eq,
                                     order_hint)
            paths.append(path)
            outer_flags.append(refs[ref_pos] is not stmt.table and
                               stmt.joins[ref_pos - 1].outer)
            bound.add(alias)

        post = None
        post_parts = multi + post_only
        if post_parts:
            post_expr = post_parts[0] if len(post_parts) == 1 else \
                n.BoolOp(op="AND", operands=tuple(post_parts))
            post = compile_expr(post_expr, resolver)

        ordered_by_index = (order_alias_col is not None and
                            (paths[0].kind == "index_order" or
                             paths[0].ordered))

        output_names, item_exprs = self._projection(stmt, alias_tables)

        aggregates: Tuple[AggSpec, ...] = ()
        having_fn = None
        if has_aggs:
            agg_nodes: List[n.Aggregate] = []
            for expr in item_exprs:
                collect_aggregates(expr, agg_nodes)
            if stmt.having is not None:
                collect_aggregates(stmt.having, agg_nodes)
            slots = {agg: pos for pos, agg in enumerate(agg_nodes)}
            aggregates = tuple(compile_aggregate(agg, resolver)
                               for agg in agg_nodes)
            item_fns = tuple(compile_agg_expr(e, resolver, slots)
                             for e in item_exprs)
            if stmt.having is not None:
                having_fn = compile_agg_expr(stmt.having, resolver, slots)
        else:
            item_fns = tuple(compile_expr(e, resolver) for e in item_exprs)

        needs_sort = bool(stmt.order_by) and not ordered_by_index
        sort_keys = self._sort_keys(stmt, resolver, output_names, has_aggs) \
            if needs_sort else None

        limit_fn = compile_expr(stmt.limit, resolver) if stmt.limit else None
        offset_fn = compile_expr(stmt.offset, resolver) if stmt.offset else None

        return SelectPlan(
            paths=paths, post_filter=post,
            outer_flags=outer_flags, output_names=output_names,
            item_fns=item_fns, has_aggregates=has_aggs,
            group_fns=tuple(compile_expr(g, resolver)
                            for g in stmt.group_by),
            aggregates=aggregates, having_fn=having_fn,
            needs_sort=needs_sort, sort_keys=sort_keys,
            ordered_by_index=ordered_by_index,
            limit_fn=limit_fn, offset_fn=offset_fn, distinct=stmt.distinct,
            tables_read=tuple(sorted({t.name for t in alias_tables.values()})),
            probe=(len(paths) == 1 and paths[0].kind == "index_eq"
                   and paths[0].index.unique
                   and len(paths[0].key_fns) == len(paths[0].index.columns)
                   and post is None and not has_aggs and not needs_sort
                   and not stmt.distinct and limit_fn is None
                   and offset_fn is None),
        )

    def _sort_keys(self, stmt: n.Select, resolver: Resolver,
                   output_names: List[str], has_aggs: bool):
        """(key, descending) per ORDER BY item, or None if some item is
        beyond this engine.  An aggregate query sorts its projected
        rows, so every item must be the bare name of a projected column;
        a plain query sorts joined rows, so every item must compile over
        the FROM tables (a select-list alias does not)."""
        keys = []
        resolvable = True
        for item in stmt.order_by:
            expr = item.expr
            key = None
            if isinstance(expr, n.ColumnRef) and expr.table is None and \
                    expr.column in output_names:
                if has_aggs:
                    key = output_names.index(expr.column)
                else:
                    try:
                        key = compile_expr(expr, resolver)
                    except SqlError:
                        pass
            elif not expr_has_aggregate(expr):
                # Compiled even where an aggregate query cannot sort by
                # it, so that an unknown column is reported as such.
                fn = compile_expr(expr, resolver)
                key = None if has_aggs else fn
            if key is None:
                resolvable = False
            keys.append((key, item.descending))
        return tuple(keys) if resolvable else None

    def _projection(self, stmt: n.Select, alias_tables: Dict[str, Table]):
        names: List[str] = []
        exprs: List[object] = []
        for item in stmt.items:
            if item.star:
                aliases = [item.star_table] if item.star_table else \
                    list(alias_tables)
                for alias in aliases:
                    table = alias_tables.get(alias)
                    if table is None:
                        raise SqlError(f"unknown alias {alias!r} in select *")
                    for col in table.schema.columns:
                        names.append(col.name)
                        exprs.append(n.ColumnRef(table=alias, column=col.name))
            else:
                if item.alias:
                    names.append(item.alias)
                elif isinstance(item.expr, n.ColumnRef):
                    names.append(item.expr.column)
                elif isinstance(item.expr, n.Aggregate):
                    arg = "*" if item.expr.arg is None else "expr"
                    names.append(f"{item.expr.func.lower()}({arg})")
                else:
                    names.append(f"expr{len(names)}")
                exprs.append(item.expr)
        return names, exprs

    def _bindable_equality(self, conjunct, resolver: Resolver, alias: str,
                           bound: set) -> Optional[Tuple[str, object]]:
        """If ``conjunct`` is ``alias.col = <expr over bound aliases>``,
        return (column, other_expr)."""
        if not (isinstance(conjunct, n.BinaryOp) and conjunct.op == "="):
            return None
        for col_side, other_side in ((conjunct.left, conjunct.right),
                                     (conjunct.right, conjunct.left)):
            if not isinstance(col_side, n.ColumnRef):
                continue
            try:
                col_alias, __ = resolver.resolve(col_side)
            except SqlError:
                continue
            if col_alias != alias:
                continue
            other_aliases = _aliases_of(other_side, resolver)
            if other_aliases <= bound:
                return col_side.column, other_side
        return None

    def _choose_path(self, alias: str, table: Table, resolver: Resolver,
                     own_conjuncts: List[object],
                     join_eq: List[Tuple[str, object]],
                     order_hint: Optional[Tuple[str, bool]]) -> AccessPath:
        # Gather equality candidates: column -> value expression.
        eq: Dict[str, object] = {}
        residual: List[object] = []
        ranges: Dict[str, dict] = {}
        for conjunct in own_conjuncts:
            pair = _equality_parts(conjunct)
            if pair is not None:
                col_ref, other = pair
                col_alias, __ = resolver.resolve(col_ref)
                if col_alias == alias and not _aliases_of(other, resolver) \
                        and col_ref.column not in eq:
                    eq[col_ref.column] = other
                    continue
            bound_range = self._range_part(conjunct, resolver, alias)
            if bound_range is not None:
                col, side, inclusive, value_expr = bound_range
                slot = ranges.setdefault(
                    col, {"low": None, "high": None,
                          "low_inc": True, "high_inc": True})
                if slot[side] is None:
                    slot[side] = value_expr
                    slot[f"{side}_inc"] = inclusive
                    continue
            residual.append(conjunct)
        for col, other in join_eq:
            if col not in eq:
                eq[col] = other
            else:
                residual.append(n.BinaryOp(
                    op="=", left=n.ColumnRef(table=alias, column=col),
                    right=other))

        filter_parts = list(residual)

        def build_filter(extra_eq_cols=(), extra_range_cols=()):
            parts = list(filter_parts)
            for col, other in eq.items():
                if col in extra_eq_cols:
                    continue
                parts.append(n.BinaryOp(
                    op="=", left=n.ColumnRef(table=alias, column=col),
                    right=other))
            for col, slot in ranges.items():
                if col in extra_range_cols:
                    continue
                if slot["low"] is not None:
                    op = ">=" if slot["low_inc"] else ">"
                    parts.append(n.BinaryOp(
                        op=op, left=n.ColumnRef(table=alias, column=col),
                        right=slot["low"]))
                if slot["high"] is not None:
                    op = "<=" if slot["high_inc"] else "<"
                    parts.append(n.BinaryOp(
                        op=op, left=n.ColumnRef(table=alias, column=col),
                        right=slot["high"]))
            if not parts:
                return None
            expr = parts[0] if len(parts) == 1 else \
                n.BoolOp(op="AND", operands=tuple(parts))
            return compile_expr(expr, resolver)

        # 1. Longest equality-prefix index.  A hash index only supports
        # full-key probes; a sorted index supports any leading prefix.
        best_index = None
        best_cols: Tuple[str, ...] = ()
        for index in table.indexes.values():
            prefix = []
            for col in index.columns:
                if col in eq:
                    prefix.append(col)
                else:
                    break
            if isinstance(index, HashIndex) and len(prefix) != len(index.columns):
                continue
            if len(prefix) > len(best_cols):
                best_index = index
                best_cols = tuple(prefix)
        if best_index is not None and best_cols:
            key_fns = tuple(compile_expr(eq[c], resolver) for c in best_cols)
            ordered = False
            descending = False
            if order_hint is not None and \
                    isinstance(best_index, SortedIndex) and \
                    len(best_index.columns) > len(best_cols) and \
                    best_index.columns[len(best_cols)] == order_hint[0]:
                ordered = True
                descending = order_hint[1]
            return AccessPath(
                alias=alias, table=table, kind="index_eq", index=best_index,
                key_fns=key_fns, ordered=ordered, descending=descending,
                filter_fn=build_filter(extra_eq_cols=set(best_cols)))

        # 2. Range on a sorted index (single leading column).
        for col, slot in ranges.items():
            index = table.sorted_index_on((col,))
            if index is not None:
                low_fn = compile_expr(slot["low"], resolver) \
                    if slot["low"] is not None else None
                high_fn = compile_expr(slot["high"], resolver) \
                    if slot["high"] is not None else None
                return AccessPath(
                    alias=alias, table=table, kind="index_range", index=index,
                    low_fn=low_fn, high_fn=high_fn,
                    low_inclusive=slot["low_inc"],
                    high_inclusive=slot["high_inc"],
                    filter_fn=build_filter(extra_range_cols={col}))

        # 3. Index-ordered scan for ORDER BY ... LIMIT on the driving table.
        if order_hint is not None:
            col, descending = order_hint
            index = table.sorted_index_on((col,))
            if index is not None:
                return AccessPath(
                    alias=alias, table=table, kind="index_order", index=index,
                    descending=descending, filter_fn=build_filter())

        # 4. Full scan.
        return AccessPath(alias=alias, table=table, kind="scan",
                          filter_fn=build_filter())

    def _range_part(self, conjunct, resolver: Resolver, alias: str):
        """Decompose ``col <op> expr`` / BETWEEN into range-bound parts."""
        if isinstance(conjunct, n.BetweenOp) and \
                isinstance(conjunct.operand, n.ColumnRef) and \
                not conjunct.negated:
            col_alias, __ = resolver.resolve(conjunct.operand)
            if col_alias == alias and not _aliases_of(conjunct.low, resolver) \
                    and not _aliases_of(conjunct.high, resolver):
                # BETWEEN expands to two parts; encode as "low" here and
                # return the high side via recursion trick -- simpler to
                # handle at the call site, so return None and let the
                # caller treat BETWEEN as residual unless split upstream.
                return None
        if not isinstance(conjunct, n.BinaryOp) or conjunct.op not in _RANGE_OPS:
            return None
        inclusive, side = _RANGE_OPS[conjunct.op]
        for col_side, other, flip in ((conjunct.left, conjunct.right, False),
                                      (conjunct.right, conjunct.left, True)):
            if not isinstance(col_side, n.ColumnRef):
                continue
            try:
                col_alias, __ = resolver.resolve(col_side)
            except SqlError:
                continue
            if col_alias != alias or _aliases_of(other, resolver):
                continue
            actual_side = side
            if flip:
                actual_side = "low" if side == "high" else "high"
            return col_side.column, actual_side, inclusive, other
        return None

    # -- UPDATE / DELETE / INSERT ----------------------------------------------------

    def plan_update(self, stmt: n.Update) -> DmlPlan:
        table = self._table(stmt.table)
        resolver = Resolver({stmt.table: table})
        path = self._dml_path(stmt.table, table, resolver, stmt.where)
        assignments = [
            (col, compile_expr(expr, resolver))
            for col, expr in stmt.assignments]
        for col, __ in stmt.assignments:
            table.column_pos(col)  # validate
        return DmlPlan(path=path, assignments=assignments,
                       tables=(table.name,))

    def plan_delete(self, stmt: n.Delete) -> DmlPlan:
        table = self._table(stmt.table)
        resolver = Resolver({stmt.table: table})
        path = self._dml_path(stmt.table, table, resolver, stmt.where)
        return DmlPlan(path=path, tables=(table.name,))

    def _dml_path(self, alias: str, table: Table, resolver: Resolver,
                  where) -> AccessPath:
        # No order hint: a DML path is never ``ordered``/``index_order``,
        # so its rows are accounted (and priced) under the index's lead
        # column exactly as an unordered SELECT path's are.
        conjuncts = split_conjuncts(where)
        return self._choose_path(alias, table, resolver, conjuncts, [], None)

    def plan_insert(self, stmt: n.Insert) -> InsertPlan:
        table = self._table(stmt.table)
        resolver = Resolver({stmt.table: table})
        return InsertPlan(
            table=table,
            columns=tuple(stmt.columns or table.schema.column_names()),
            value_fns=tuple(compile_expr(v, resolver) for v in stmt.values),
            positional=not stmt.columns)
