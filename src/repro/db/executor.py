"""Plan execution with row-accounting statistics.

The executor reports, per query, how many rows it *examined* split by
access kind (scanned vs index-probed).  The cost model uses that split:
scanned rows scale linearly with table size while index-probe result
sizes stay constant when the data generator keeps per-entity relation
sizes fixed, which lets a scaled-down dataset produce full-scale costs.

Sorting with mixed ASC/DESC directions uses repeated stable sorts from
the least- to the most-significant key, so no comparator inversion
tricks are needed.

Nothing here compiles: a plan arrives with every closure it needs (see
:mod:`repro.db.planner`).  Rows come from one of two loops --
:func:`_path_rows` for one table (SELECT, UPDATE and DELETE alike),
:func:`_nested_loop_rows` for a join -- and plain, sorted and aggregate
SELECTs all consume them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List

from repro.db.errors import SqlError
from repro.db.exprs import sort_key
from repro.db.planner import AccessPath, DmlPlan, InsertPlan, SelectPlan


@dataclass(slots=True)
class ExecStats:
    """Row accounting for one executed statement.

    ``rows_examined_index`` is keyed by ``(table, lead_column)`` so the
    cost model can apply per-column cardinality scaling; ``lead_column``
    is the first column of the index the path used.
    """

    rows_examined_scan: Dict[str, int] = field(default_factory=dict)
    rows_examined_index: Dict[tuple, int] = field(default_factory=dict)
    rows_returned: int = 0
    rows_changed: int = 0
    sort_rows: int = 0
    tables_read: tuple = ()
    tables_written: tuple = ()

    def access_summary(self) -> str:
        """Compact access-path description, e.g. ``"items:index(5) authors:scan(100)"``.

        Stamped onto QueryRecords so trace tooling can show *how* a
        query touched its tables without re-planning the statement.
        A one-index summary, the stamp of every pk probe, is one shared
        string per value, not a new one per statement.
        """
        if len(self.rows_examined_index) == 1 and \
                not self.rows_examined_scan:
            ((table, __), count), = self.rows_examined_index.items()
            return _index_stamp(table, count)
        parts = []
        for (table, __), count in sorted(self.rows_examined_index.items()):
            parts.append(f"{table}:index({count})")
        for table, count in sorted(self.rows_examined_scan.items()):
            parts.append(f"{table}:scan({count})")
        return " ".join(parts)

    def count_examined(self, path: AccessPath, count: int) -> None:
        """Fold one access path's examined-row counter into the stats.

        Called once per path per statement, outermost path first and
        only with ``count > 0`` -- a path that examined nothing leaves
        no key, and key order is the order the cost model sums in.
        """
        counts = self.rows_examined_scan if path.examined_scan \
            else self.rows_examined_index
        key = path.examined_key
        counts[key] = counts.get(key, 0) + count


@lru_cache(maxsize=1024)
def _index_stamp(table: str, count: int) -> str:
    return f"{table}:index({count})"


# ---------------------------------------------------------------- SELECT

def _path_rows(path: AccessPath, env: dict, params: tuple,
               examined: List[int], post_filter=None):
    """The single-table pipeline, a straight loop: bind ``env`` to each
    row of ``path.table`` that the path selects and yield its row id.

    ``examined[0]`` counts the live rows looked at, filtered out or not.
    """
    alias = path.alias
    get_row = path.table.get_row
    filter_fn = path.filter_fn
    for rowid in path.rowids(env, params):
        row = get_row(rowid)
        if row is None:
            continue
        examined[0] += 1
        env[alias] = row
        if (filter_fn is None or filter_fn(env, params)) and \
                (post_filter is None or post_filter(env, params)):
            yield rowid


def _nested_loop_rows(plan: SelectPlan, env: dict, params: tuple,
                      examined: List[int]):
    """The join pipeline: bind ``env`` (alias -> row) to each joined row
    in turn, yielding once per row.

    Iterative nested loops: ``cursors[d]`` is the row-id iterator of
    path ``d`` under the current outer rows; ``depth`` moves right on a
    match and left on exhaustion.  ``examined[d]`` counts as above.
    """
    paths = plan.paths
    post_filter = plan.post_filter
    outer = plan.outer_flags
    last = len(paths) - 1
    levels = [(path.alias, path.table.get_row, path.filter_fn)
              for path in paths]
    cursors: list = [None] * len(paths)
    matched = [False] * len(paths)
    cursors[0] = iter(paths[0].rowids(env, params))
    depth = 0
    while depth >= 0:
        alias, get_row, filter_fn = levels[depth]
        found = False
        for rowid in cursors[depth]:
            row = get_row(rowid)
            if row is None:
                continue
            examined[depth] += 1
            env[alias] = row
            if filter_fn is None or filter_fn(env, params):
                found = matched[depth] = True
                break
        if not found:
            if outer[depth] and not matched[depth]:
                # LEFT JOIN with no match: one all-NULL row.
                matched[depth] = True
                env[alias] = paths[depth].null_row
            else:
                env.pop(alias, None)
                depth -= 1
                continue
        if depth == last:
            if post_filter is None or post_filter(env, params):
                yield
        else:
            depth += 1
            cursors[depth] = iter(paths[depth].rowids(env, params))
            matched[depth] = False


def _limits(plan: SelectPlan, params: tuple):
    limit = offset = None
    if plan.limit_fn is not None:
        limit = int(plan.limit_fn({}, params))
    if plan.offset_fn is not None:
        offset = int(plan.offset_fn({}, params))
    return limit, offset or 0


def _aggregate_rows(plan: SelectPlan, env: dict, params: tuple,
                    joined) -> List[tuple]:
    """Group the joined rows, then project one row per group."""
    aggregates = plan.aggregates
    group_fns = plan.group_fns
    # group key -> (first joined row of the group, one accumulator per
    # aggregate).  Non-aggregate select-list expressions are evaluated
    # on that first row.
    groups: Dict[tuple, tuple] = {}
    for __ in joined:
        key = tuple([fn(env, params) for fn in group_fns])
        group = groups.get(key)
        if group is None:
            group = groups[key] = (dict(env),
                                   [spec.new_acc() for spec in aggregates])
        for spec, acc in zip(aggregates, group[1]):
            if spec.arg_fn is None:
                acc[0] += 1                     # COUNT(*)
                continue
            value = spec.arg_fn(env, params)
            if value is None:
                continue
            if spec.distinct:
                if value in acc[4]:
                    continue
                acc[4].add(value)
            spec.step(acc, value)

    if not groups and not group_fns:
        # Aggregates over no rows still yield one row.
        groups[()] = ({}, [spec.new_acc() for spec in aggregates])

    having_fn = plan.having_fn
    item_fns = plan.item_fns
    rows = []
    for first, accs in groups.values():
        values = [spec.finalize(acc) for spec, acc in zip(aggregates, accs)]
        if having_fn is not None and not having_fn(first, params, values):
            continue
        rows.append(tuple([fn(first, params, values) for fn in item_fns]))
    return rows


def _probe_select(plan: SelectPlan, params: tuple):
    """``run_select`` for a ``plan.probe`` statement: one index probe,
    one row fetch, the stats built directly."""
    path = plan.paths[0]
    env: dict = {}
    found = path.rowids(env, params)
    row = path.table.get_row(found[0]) if found else None
    if row is None:
        # Miss, NULL key or tombstoned row: nothing examined.
        return [], ExecStats({}, {}, 0, 0, 0, plan.tables_read)
    env[path.alias] = row
    filter_fn = path.filter_fn
    if filter_fn is None or filter_fn(env, params):
        rows = [tuple([fn(env, params) for fn in plan.item_fns])]
    else:
        rows = []
    return rows, ExecStats({}, {path.examined_key: 1}, len(rows), 0, 0,
                           plan.tables_read)


def run_select(plan: SelectPlan, params: tuple):
    """Execute a SelectPlan; returns ``(rows, stats)``."""
    if plan.probe:
        return _probe_select(plan, params)
    stats = ExecStats(tables_read=plan.tables_read)
    limit, offset = _limits(plan, params)
    sort_keys = plan.sort_keys
    paths = plan.paths
    examined = [0] * len(paths)
    # Each step of ``joined`` binds ``env`` to the next joined row.
    env: dict = {}
    if len(paths) == 1:
        joined = _path_rows(paths[0], env, params, examined,
                            plan.post_filter)
    else:
        joined = _nested_loop_rows(plan, env, params, examined)

    if plan.has_aggregates:
        rows = _aggregate_rows(plan, env, params, joined)
        if plan.needs_sort:
            stats.sort_rows += len(rows)
            if sort_keys is None:
                raise SqlError(
                    "ORDER BY in an aggregate query must reference a "
                    "projected column alias")
            for column, descending in reversed(sort_keys):
                rows.sort(key=lambda row: sort_key(row[column]),
                          reverse=descending)
    elif plan.needs_sort:
        if sort_keys is None:
            raise SqlError("unresolvable ORDER BY expression")
        item_fns = plan.item_fns
        keyed = [([sort_key(fn(env, params)) for fn, __ in sort_keys],
                  tuple([fn(env, params) for fn in item_fns]))
                 for __ in joined]
        stats.sort_rows += len(keyed)
        for pos in range(len(sort_keys) - 1, -1, -1):
            keyed.sort(key=lambda kr: kr[0][pos], reverse=sort_keys[pos][1])
        rows = [projected for __, projected in keyed]
    else:
        item_fns = plan.item_fns
        # Index order + LIMIT: stop fetching at the last wanted row.
        want = limit + offset if plan.ordered_by_index and \
            not plan.distinct and limit is not None else None
        rows = []
        for __ in joined:
            rows.append(tuple([fn(env, params) for fn in item_fns]))
            if want is not None and len(rows) >= want:
                break

    for path, count in zip(paths, examined):
        if count:
            stats.count_examined(path, count)
    if plan.distinct and not plan.has_aggregates:
        rows = list(dict.fromkeys(rows))
    if limit is not None or offset:
        rows = rows[offset:] if limit is None else rows[offset:offset + limit]
    stats.rows_returned = len(rows)
    return rows, stats


# ------------------------------------------------------------------ DML

def run_update(plan: DmlPlan, params: tuple) -> ExecStats:
    stats = ExecStats(tables_written=plan.tables, tables_read=plan.tables)
    table = plan.path.table
    alias = plan.path.alias
    env: dict = {}
    for rowid in _matching_rowids(plan.path, env, params, stats):
        row = table.get_row(rowid)
        if row is None:
            continue
        env[alias] = row
        changes = {col: fn(env, params) for col, fn in plan.assignments}
        table.update_row(rowid, changes)
        stats.rows_changed += 1
    return stats


def run_delete(plan: DmlPlan, params: tuple) -> ExecStats:
    stats = ExecStats(tables_written=plan.tables, tables_read=plan.tables)
    table = plan.path.table
    for rowid in _matching_rowids(plan.path, {}, params, stats):
        table.delete_row(rowid)
        stats.rows_changed += 1
    return stats


def _matching_rowids(path: AccessPath, env: dict, params: tuple,
                     stats: ExecStats) -> List[int]:
    """Every row id the path selects, collected before the caller writes
    anything so a statement never sees its own writes (halloween
    protection)."""
    examined = [0]
    matches = list(_path_rows(path, env, params, examined))
    if examined[0]:
        stats.count_examined(path, examined[0])
    return matches


def run_insert(plan: InsertPlan, params: tuple) -> int:
    """Insert one row; returns its row id."""
    values = [fn({}, params) for fn in plan.value_fns]
    if plan.positional and len(values) != len(plan.columns):
        raise SqlError(
            f"INSERT into {plan.table.name!r} expects {len(plan.columns)} "
            f"values, got {len(values)}")
    return plan.table.insert(dict(zip(plan.columns, values)))
