"""Unit tests for planner internals: conjuncts, access paths, joins."""

import pytest

from repro.db import Column, ColumnType, Database, IndexDef, TableSchema
from repro.db.planner import Planner, split_conjuncts
from repro.db.sql.parser import parse
from repro.db.sql import nodes as n


@pytest.fixture
def catalog():
    db = Database()
    db.create_table(TableSchema(
        name="t",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("a", ColumnType.INT),
                 Column("b", ColumnType.INT),
                 Column("name", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_ab", ("a", "b")),
                 IndexDef("idx_name_hash", ("name",), kind="hash")]))
    db.create_table(TableSchema(
        name="u",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("t_id", ColumnType.INT)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_u_t", ("t_id",))]))
    return db


def plan_of(db, sql):
    stmt, __ = parse(sql)
    return Planner(db.tables).plan_select(stmt)


def test_split_conjuncts_flattens_nested_ands():
    stmt, __ = parse("SELECT id FROM t WHERE a = 1 AND (b = 2 AND id = 3)")
    conjuncts = split_conjuncts(stmt.where)
    assert len(conjuncts) == 3


def test_split_conjuncts_keeps_or_intact():
    stmt, __ = parse("SELECT id FROM t WHERE a = 1 OR b = 2")
    conjuncts = split_conjuncts(stmt.where)
    assert len(conjuncts) == 1
    assert isinstance(conjuncts[0], n.BoolOp)


def test_pk_equality_prefers_pk_index(catalog):
    plan = plan_of(catalog, "SELECT a FROM t WHERE id = 1")
    assert plan.paths[0].kind == "index_eq"
    assert plan.paths[0].index.name == "pk_t"


def test_composite_index_full_prefix(catalog):
    plan = plan_of(catalog, "SELECT id FROM t WHERE a = 1 AND b = 2")
    path = plan.paths[0]
    assert path.kind == "index_eq"
    assert path.index.name == "idx_ab"
    assert len(path.key_fns) == 2
    assert path.filter_fn is None        # everything covered by the key


def test_composite_index_partial_prefix(catalog):
    plan = plan_of(catalog, "SELECT id FROM t WHERE a = 1 AND name = 'x'")
    path = plan.paths[0]
    # 'name = ?' satisfies the full hash index, so it wins over the
    # single-column prefix of idx_ab... unless idx_ab's prefix is longer.
    assert path.kind == "index_eq"
    assert path.filter_fn is not None


def test_hash_index_requires_full_key(catalog):
    # Only a = ? matches idx_ab's prefix; the hash index on name cannot
    # serve a LIKE, so no hash path may be chosen.
    plan = plan_of(catalog, "SELECT id FROM t WHERE name LIKE 'x%'")
    assert plan.paths[0].kind == "scan"


def test_range_path_on_pk(catalog):
    plan = plan_of(catalog, "SELECT id FROM t WHERE id > 5 AND id < 10")
    path = plan.paths[0]
    assert path.kind == "index_range"
    assert not path.low_inclusive and not path.high_inclusive


def test_order_hint_uses_index_order_scan(catalog):
    plan = plan_of(catalog, "SELECT id FROM t ORDER BY id DESC LIMIT 3")
    assert plan.paths[0].kind == "index_order"
    assert plan.paths[0].descending
    assert plan.ordered_by_index


def test_eq_prefix_plus_next_column_order(catalog):
    plan = plan_of(catalog,
                   "SELECT id FROM t WHERE a = 1 ORDER BY b LIMIT 5")
    path = plan.paths[0]
    assert path.kind == "index_eq"
    assert path.index.name == "idx_ab"
    assert path.ordered
    assert plan.ordered_by_index


def test_order_by_unrelated_column_needs_sort(catalog):
    plan = plan_of(catalog,
                   "SELECT id FROM t WHERE a = 1 ORDER BY name")
    assert not plan.ordered_by_index


def test_join_binds_equality_to_inner_index(catalog):
    plan = plan_of(catalog,
                   "SELECT u.id FROM t JOIN u ON u.t_id = t.id "
                   "WHERE t.a = 1")
    assert [p.alias for p in plan.paths] == ["t", "u"]
    assert plan.paths[1].kind == "index_eq"
    assert plan.paths[1].index.name == "idx_u_t"


def test_comma_join_pulls_condition_from_where(catalog):
    plan = plan_of(catalog,
                   "SELECT u.id FROM t, u WHERE u.t_id = t.id AND t.a = 1")
    assert plan.paths[1].kind == "index_eq"
    assert plan.post_filter is None


def test_unbindable_cross_condition_becomes_post_filter(catalog):
    plan = plan_of(catalog,
                   "SELECT u.id FROM t, u WHERE u.t_id + 1 = t.id + 1")
    # Neither side is a bare column of the inner table: nested loop with
    # a post filter.
    assert plan.paths[1].kind == "scan"
    assert plan.post_filter is not None


def test_duplicate_alias_rejected(catalog):
    from repro.db.errors import SqlError
    with pytest.raises(SqlError):
        plan_of(catalog, "SELECT x.id FROM t x, t x")


def test_tables_read_lists_every_table(catalog):
    plan = plan_of(catalog,
                   "SELECT u.id FROM t JOIN u ON u.t_id = t.id")
    assert plan.tables_read == ("t", "u")


# -- the unique-key probe mark ----------------------------------------------------

@pytest.mark.parametrize("sql, marked", [
    ("SELECT name FROM t WHERE id = ?", True),
    ("SELECT name FROM t WHERE id = ? AND a > 1", True),
    ("SELECT name FROM t WHERE a = ? AND b = ?", False),        # not unique
    ("SELECT name FROM t WHERE name = ?", False),               # not unique
    ("SELECT name FROM t WHERE id = ? LIMIT 1", False),
    ("SELECT DISTINCT name FROM t WHERE id = ?", False),
    ("SELECT MAX(a) FROM t WHERE id = ?", False),
    ("SELECT name FROM t WHERE id = ? ORDER BY name", False),
    ("SELECT u.id FROM t JOIN u ON u.t_id = t.id WHERE t.id = ?", False),
])
def test_probe_mark_follows_plan_shape(catalog, sql, marked):
    assert plan_of(catalog, sql).probe is marked


# -- known engine defects, pinned ---------------------------------------------------
#
# Found by PR 12 and deliberately not fixed there or since: each fix
# changes ExecStats, hence priced costs, compiled profiles and every
# benchmark stats_digest, so it needs a change of its own that
# regenerates the goldens.  strict=True makes that change announce itself.

def _defect_db():
    db = Database()
    db.create_table(TableSchema(
        name="t",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("a", ColumnType.INT),
                 Column("b", ColumnType.INT)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_ab", ("a", "b"))]))
    return db


def _ids(db, sql, params=()):
    return [row[0] for row in db.execute(sql, params).rows]


@pytest.mark.xfail(strict=True, reason="range bounds on a composite sorted "
                   "index are 1-tuples: the boundary key is mis-placed")
def test_defect_composite_index_range_boundary_key():
    db = _defect_db()
    for a in (1, 2, 2, 3):
        db.execute("INSERT INTO t (a, b) VALUES (?, 7)", (a,))
    assert (sorted(_ids(db, "SELECT id FROM t WHERE a <= 2")),
            sorted(_ids(db, "SELECT id FROM t WHERE a > 2"))) == \
        ([1, 2, 3], [4])


@pytest.mark.xfail(strict=True, reason="a NULL anywhere in a sorted-index "
                   "key hides the row from index-order and prefix scans")
def test_defect_null_in_sorted_index_key_hides_row():
    db = _defect_db()
    db.execute("INSERT INTO t (a, b) VALUES (1, 5)")
    db.execute("INSERT INTO t (a, b) VALUES (1, NULL)")
    assert (_ids(db, "SELECT id FROM t WHERE a = 1"),
            _ids(db, "SELECT id FROM t ORDER BY a LIMIT 5")) == \
        ([1, 2], [1, 2])


@pytest.mark.xfail(strict=True, reason="MIN/MAX of an indexed column is "
                   "not answered from the index")
def test_defect_max_of_primary_key_full_scans():
    db = _defect_db()
    for a in range(5):
        db.execute("INSERT INTO t (a, b) VALUES (?, 1)", (a,))
    result = db.execute("SELECT MAX(id) FROM t")
    assert result.scalar() == 5
    assert not result.stats.rows_examined_scan
