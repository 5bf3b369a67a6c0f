"""End-to-end SQL tests against the Database engine."""

import pytest

from repro.db import (
    Column,
    ColumnType,
    Database,
    IndexDef,
    TableSchema,
)
from repro.db.errors import IntegrityError, LockError, SqlError


@pytest.fixture
def db():
    database = Database()
    database.create_table(TableSchema(
        name="items",
        columns=[
            Column("id", ColumnType.INT, nullable=False),
            Column("name", ColumnType.VARCHAR),
            Column("category", ColumnType.INT),
            Column("price", ColumnType.FLOAT),
            Column("quantity", ColumnType.INT),
        ],
        primary_key="id",
        auto_increment=True,
        indexes=[IndexDef("idx_cat", ("category",))],
    ))
    database.create_table(TableSchema(
        name="bids",
        columns=[
            Column("id", ColumnType.INT, nullable=False),
            Column("item_id", ColumnType.INT),
            Column("user_id", ColumnType.INT),
            Column("amount", ColumnType.FLOAT),
        ],
        primary_key="id",
        auto_increment=True,
        indexes=[IndexDef("idx_item", ("item_id",))],
    ))
    for i in range(1, 21):
        database.execute(
            "INSERT INTO items (name, category, price, quantity) "
            "VALUES (?, ?, ?, ?)",
            (f"item{i:02d}", i % 4, float(i), 10))
    for i in range(1, 11):
        database.execute(
            "INSERT INTO bids (item_id, user_id, amount) VALUES (?, ?, ?)",
            (1 + (i % 5), i, 10.0 * i))
    return database


def test_insert_assigns_auto_increment(db):
    result = db.execute(
        "INSERT INTO items (name, category, price, quantity) "
        "VALUES ('new', 1, 5.0, 3)")
    assert result.last_insert_id == 21


def test_select_by_primary_key_uses_index(db):
    result = db.execute("SELECT name FROM items WHERE id = ?", (7,))
    assert result.rows == [("item07",)]
    assert result.stats.indexed_for_table("items") == 1
    assert not result.stats.rows_examined_scan


def test_select_by_secondary_index(db):
    result = db.execute("SELECT id FROM items WHERE category = ?", (2,))
    ids = sorted(r[0] for r in result.rows)
    assert ids == [2, 6, 10, 14, 18]
    assert result.stats.indexed_for_table("items") == 5


def test_select_full_scan_counts_examined(db):
    result = db.execute("SELECT id FROM items WHERE price > 18.0")
    assert {r[0] for r in result.rows} == {19, 20}
    assert result.stats.rows_examined_scan["items"] == 20


def test_select_range_uses_pk_index(db):
    result = db.execute("SELECT id FROM items WHERE id > 17")
    assert sorted(r[0] for r in result.rows) == [18, 19, 20]
    assert result.stats.indexed_for_table("items") == 3


def test_order_by_and_limit(db):
    result = db.execute(
        "SELECT id, price FROM items ORDER BY price DESC LIMIT 3")
    assert [r[0] for r in result.rows] == [20, 19, 18]


def test_order_by_index_early_stop(db):
    result = db.execute("SELECT id FROM items ORDER BY id LIMIT 5")
    assert [r[0] for r in result.rows] == [1, 2, 3, 4, 5]
    # Early termination: only LIMIT rows examined via the ordered index.
    assert result.stats.indexed_for_table("items") == 5


def test_order_by_multiple_keys(db):
    result = db.execute(
        "SELECT category, id FROM items ORDER BY category ASC, id DESC "
        "LIMIT 6")
    assert result.rows[0][0] == 0
    cats = [r[0] for r in result.rows]
    assert cats == sorted(cats)
    zero_ids = [r[1] for r in result.rows if r[0] == 0]
    assert zero_ids == sorted(zero_ids, reverse=True)


def test_limit_offset(db):
    result = db.execute("SELECT id FROM items ORDER BY id LIMIT 5 OFFSET 10")
    assert [r[0] for r in result.rows] == [11, 12, 13, 14, 15]


def test_join_with_index_probe(db):
    result = db.execute(
        "SELECT i.name, b.amount FROM bids b JOIN items i ON i.id = b.item_id "
        "WHERE b.user_id = ?", (3,))
    assert result.rows == [("item04", 30.0)]


def test_comma_join_equivalent(db):
    explicit = db.execute(
        "SELECT b.id FROM bids b JOIN items i ON i.id = b.item_id "
        "WHERE i.category = 1")
    comma = db.execute(
        "SELECT b.id FROM bids b, items i "
        "WHERE i.id = b.item_id AND i.category = 1")
    assert sorted(explicit.rows) == sorted(comma.rows)


def test_left_join_preserves_unmatched(db):
    db.execute("INSERT INTO items (name, category, price, quantity) "
               "VALUES ('lonely', 9, 1.0, 1)")
    result = db.execute(
        "SELECT i.id, b.id FROM items i LEFT JOIN bids b ON b.item_id = i.id "
        "WHERE i.category = 9")
    assert result.rows == [(21, None)]


def test_aggregates_global(db):
    result = db.execute(
        "SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) "
        "FROM bids")
    count, total, low, high, avg = result.rows[0]
    assert count == 10
    assert total == pytest.approx(550.0)
    assert low == 10.0 and high == 100.0
    assert avg == pytest.approx(55.0)


def test_aggregates_empty_input(db):
    result = db.execute("SELECT COUNT(*), MAX(amount) FROM bids WHERE id > 999")
    assert result.rows == [(0, None)]


def test_group_by_with_having_and_order(db):
    result = db.execute(
        "SELECT item_id, COUNT(*) AS cnt, MAX(amount) AS top FROM bids "
        "GROUP BY item_id HAVING COUNT(*) > 1 ORDER BY top DESC")
    assert all(row[1] > 1 for row in result.rows)
    tops = [row[2] for row in result.rows]
    assert tops == sorted(tops, reverse=True)


def test_count_distinct(db):
    result = db.execute("SELECT COUNT(DISTINCT item_id) FROM bids")
    assert result.scalar() == 5


def test_distinct_rows(db):
    result = db.execute("SELECT DISTINCT category FROM items ORDER BY category")
    assert [r[0] for r in result.rows] == [0, 1, 2, 3]


def test_update_with_arithmetic(db):
    db.execute("UPDATE items SET quantity = quantity - 1 WHERE id = ?", (5,))
    result = db.execute("SELECT quantity FROM items WHERE id = 5")
    assert result.scalar() == 9


def test_update_rowcount(db):
    result = db.execute("UPDATE items SET quantity = 0 WHERE category = 1")
    assert result.rowcount == 5


def test_update_does_not_see_own_writes(db):
    # Halloween protection: moving rows into the scanned range must not
    # cause re-processing.
    db.execute("UPDATE items SET category = category + 1")
    result = db.execute("SELECT COUNT(*) FROM items WHERE category = 4")
    assert result.scalar() == 5


def test_delete(db):
    result = db.execute("DELETE FROM bids WHERE item_id = ?", (1,))
    assert result.rowcount == 2
    remaining = db.execute("SELECT COUNT(*) FROM bids").scalar()
    assert remaining == 8


def test_delete_then_insert_reuses_nothing(db):
    db.execute("DELETE FROM items WHERE id = 20")
    result = db.execute("INSERT INTO items (name, category, price, quantity) "
                        "VALUES ('x', 0, 1.0, 1)")
    assert result.last_insert_id == 21  # auto-increment never reused


def test_like_patterns(db):
    result = db.execute("SELECT id FROM items WHERE name LIKE 'item0%'")
    assert len(result.rows) == 9
    result = db.execute("SELECT id FROM items WHERE name LIKE 'item_5'")
    assert {r[0] for r in result.rows} == {5, 15}


def test_in_and_between(db):
    result = db.execute("SELECT id FROM items WHERE id IN (1, 3, 99)")
    assert sorted(r[0] for r in result.rows) == [1, 3]
    result = db.execute("SELECT id FROM items WHERE price BETWEEN 4 AND 6")
    assert sorted(r[0] for r in result.rows) == [4, 5, 6]


def test_is_null_matching(db):
    db.execute("INSERT INTO items (name, category, price, quantity) "
               "VALUES ('nullcat', NULL, 1.0, 1)")
    result = db.execute("SELECT id FROM items WHERE category IS NULL")
    assert len(result.rows) == 1
    result = db.execute("SELECT COUNT(*) FROM items WHERE category IS NOT NULL")
    assert result.scalar() == 20


def test_null_comparison_never_matches(db):
    db.execute("INSERT INTO items (name, category, price, quantity) "
               "VALUES ('nullcat', NULL, 1.0, 1)")
    result = db.execute("SELECT id FROM items WHERE category = NULL")
    assert result.rows == []


def test_or_predicate(db):
    result = db.execute(
        "SELECT id FROM items WHERE id = 1 OR id = 2")
    assert sorted(r[0] for r in result.rows) == [1, 2]


def test_select_expression_projection(db):
    result = db.execute(
        "SELECT id, price * quantity AS total FROM items WHERE id = 3")
    assert result.rows == [(3, 30.0)]
    assert result.columns == ["id", "total"]


def test_parameter_count_enforced(db):
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM items WHERE id = ?", (1, 2))
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM items WHERE id = ?")


def test_unknown_table_and_column(db):
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM ghosts")
    with pytest.raises(SqlError):
        db.execute("SELECT ghost FROM items")


def test_ambiguous_column_rejected(db):
    with pytest.raises(SqlError):
        db.execute("SELECT id FROM items i JOIN bids b ON b.item_id = i.id")


def test_ddl_via_sql(db):
    db.execute("CREATE TABLE notes (id INT AUTO_INCREMENT, body TEXT)")
    db.execute("INSERT INTO notes (body) VALUES ('hello')")
    assert db.execute("SELECT body FROM notes").scalar() == "hello"
    db.execute("CREATE INDEX idx_body ON notes (body)")
    assert "idx_body" in db.table("notes").indexes


def test_transaction_statements_are_noops(db):
    db.execute("BEGIN")
    db.execute("INSERT INTO items (name, category, price, quantity) "
               "VALUES ('t', 0, 1.0, 1)")
    db.execute("ROLLBACK")  # MyISAM: no effect
    assert db.execute("SELECT COUNT(*) FROM items").scalar() == 21


def test_lock_tables_enforcement(db):
    session = db.open_session()
    db.execute("LOCK TABLES items READ", session=session)
    # Reading a locked table is fine.
    db.execute("SELECT COUNT(*) FROM items", session=session)
    # Writing a READ-locked table is rejected.
    with pytest.raises(LockError):
        db.execute("UPDATE items SET quantity = 0 WHERE id = 1",
                    session=session)
    # Touching an unlocked table is rejected.
    with pytest.raises(LockError):
        db.execute("SELECT COUNT(*) FROM bids", session=session)
    db.execute("UNLOCK TABLES", session=session)
    db.execute("SELECT COUNT(*) FROM bids", session=session)


def test_lock_tables_write_allows_update(db):
    session = db.open_session()
    db.execute("LOCK TABLES items WRITE", session=session)
    db.execute("UPDATE items SET quantity = 99 WHERE id = 1", session=session)
    db.execute("UNLOCK TABLES", session=session)
    assert db.execute("SELECT quantity FROM items WHERE id = 1").scalar() == 99


def test_sessions_are_isolated(db):
    s1 = db.open_session()
    s2 = db.open_session()
    db.execute("LOCK TABLES items READ", session=s1)
    # s2 holds no locks, so it is unrestricted (functional layer is
    # single-threaded; contention happens in the simulation layer).
    db.execute("SELECT COUNT(*) FROM bids", session=s2)


def test_duplicate_primary_key_rejected(db):
    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO items (id, name, category, price, quantity) "
                   "VALUES (1, 'dup', 0, 1.0, 1)")


def test_not_null_enforced(db):
    db.create_table(TableSchema(
        name="strict",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("req", ColumnType.VARCHAR, nullable=False)],
        primary_key="id", auto_increment=True))
    with pytest.raises(IntegrityError):
        db.execute("INSERT INTO strict (req) VALUES (NULL)")


def test_cost_scales_scans_by_nominal_rows():
    db = Database()
    schema = TableSchema(
        name="big",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("x", ColumnType.INT)],
        primary_key="id", auto_increment=True)
    schema.stats.nominal_rows = 100_000
    db.create_table(schema)
    for i in range(100):
        db.execute("INSERT INTO big (x) VALUES (?)", (i,))
    scan = db.execute("SELECT COUNT(*) FROM big WHERE x > -1")
    probe = db.execute("SELECT x FROM big WHERE id = 5")
    # The scan is priced at ~100k scaled rows, dwarfing the probe.
    assert scan.cost.scaled_rows_examined == pytest.approx(100_000)
    assert scan.cost.cpu_seconds > 100 * probe.cost.cpu_seconds


def test_index_probe_cost_not_scaled():
    db = Database()
    schema = TableSchema(
        name="big",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("x", ColumnType.INT)],
        primary_key="id", auto_increment=True)
    schema.stats.nominal_rows = 1_000_000
    db.create_table(schema)
    for i in range(50):
        db.execute("INSERT INTO big (x) VALUES (?)", (i,))
    probe = db.execute("SELECT x FROM big WHERE id = 5")
    assert probe.cost.scaled_rows_examined == 1.0


def test_result_set_helpers(db):
    result = db.execute("SELECT id, name FROM items WHERE id = 1")
    assert result.first() == (1, "item01")
    assert result.as_dicts() == [{"id": 1, "name": "item01"}]
    empty = db.execute("SELECT id FROM items WHERE id = 999")
    assert empty.first() is None
    assert empty.scalar() is None


def test_left_join_where_is_null_antijoin(db):
    """WHERE predicates on an outer-joined table evaluate after the
    join: the classic anti-join finds rows with no match."""
    # Items 6..20 have no bids (bids cover item_id 1..5).
    result = db.execute(
        "SELECT COUNT(*) FROM items i LEFT JOIN bids b ON b.item_id = i.id "
        "WHERE b.id IS NULL")
    assert result.scalar() == 15
    # And the complementary filter keeps only matched rows.
    matched = db.execute(
        "SELECT COUNT(DISTINCT i.id) FROM items i "
        "LEFT JOIN bids b ON b.item_id = i.id WHERE b.id IS NOT NULL")
    assert matched.scalar() == 5


def test_left_join_where_filter_on_inner_value(db):
    """A WHERE filter on the outer table's column drops NULL rows."""
    result = db.execute(
        "SELECT i.id, b.amount FROM items i "
        "LEFT JOIN bids b ON b.item_id = i.id WHERE b.amount > 90")
    assert all(row[1] > 90 for row in result.rows)


# -- DDL plan-cache invalidation ----------------------------------------------

def _access_kinds(db, sql):
    """The access-path kinds EXPLAIN reports for ``sql``."""
    return [row[2] for row in db.execute("EXPLAIN " + sql).rows]


def test_plan_cache_replans_after_create_index(db):
    """A cached plan must be re-planned once a usable index appears."""
    sql = "SELECT id FROM items WHERE price = 5.0"
    assert "scan" in _access_kinds(db, sql)
    db.execute(sql)                               # caches the scan plan
    cached = db._plan_cache[sql]
    db.execute("CREATE INDEX idx_price ON items (price)")
    assert sql not in db._plan_cache              # invalidated
    db.execute(sql)
    assert db._plan_cache[sql] is not cached      # freshly planned
    assert "scan" not in _access_kinds(db, sql)   # now uses idx_price


def test_plan_cache_replans_after_drop_index(db):
    sql = "SELECT id FROM items WHERE category = 2"
    assert "scan" not in _access_kinds(db, sql)   # idx_cat in play
    db.execute(sql)
    assert sql in db._plan_cache
    db.execute("DROP INDEX idx_cat ON items")
    assert sql not in db._plan_cache
    # Re-planning falls back to a full scan and still answers correctly.
    assert "scan" in _access_kinds(db, sql)
    result = db.execute(sql)
    assert sorted(row[0] for row in result.rows) == [2, 6, 10, 14, 18]


def test_ddl_statements_are_never_plan_cached(db):
    for sql in ("CREATE INDEX idx_q ON items (quantity)",
                "DROP INDEX idx_q ON items"):
        db.execute(sql)
        assert sql not in db._plan_cache


def test_drop_index_errors(db):
    with pytest.raises(SqlError):
        db.execute("DROP INDEX nonexistent ON items")
    with pytest.raises(SqlError):
        db.execute("DROP INDEX pk_items ON items")   # pk is protected
    with pytest.raises(SqlError):
        db.execute("DROP INDEX idx_cat ON missing_table")


def test_drop_table_statement(db):
    db.execute("CREATE TABLE scratch (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO scratch (id, v) VALUES (1, 2)")
    sql = "SELECT v FROM scratch WHERE id = 1"
    assert db.execute(sql).scalar() == 2
    db.execute("DROP TABLE scratch")
    assert sql not in db._plan_cache
    with pytest.raises(SqlError):
        db.execute(sql)


# -- compile-once execution ---------------------------------------------------

def _count_compilations(monkeypatch):
    """Wrap ``compile_expr`` wherever ``repro.db`` can reach it; returns
    the list that collects one entry per (nested) compilation."""
    from repro.db import engine, executor, exprs, planner

    compiled = []
    real = exprs.compile_expr

    def counting(expr, resolver):
        compiled.append(expr)
        return real(expr, resolver)

    for module in (engine, executor, exprs, planner):
        if hasattr(module, "compile_expr"):
            monkeypatch.setattr(module, "compile_expr", counting)
    return compiled


@pytest.mark.parametrize("sql, params", [
    ("SELECT name, price * quantity FROM items WHERE id = ?", (7,)),
    ("SELECT name FROM items WHERE category = ? ORDER BY price DESC, name",
     (2,)),
    # 20 groups: nothing may be compiled per group either.
    ("SELECT id, COUNT(*) AS n, SUM(price) / COUNT(*) FROM items "
     "GROUP BY id HAVING SUM(price) > ? ORDER BY n DESC LIMIT 15", (3.0,)),
    ("SELECT i.name, MAX(b.amount) AS top FROM items i "
     "LEFT JOIN bids b ON b.item_id = i.id GROUP BY i.id ORDER BY top",
     ()),
    ("INSERT INTO items (name, category, price, quantity) "
     "VALUES (?, 1 + 2, ?, 4)", ("fresh", 2.5)),
    ("UPDATE items SET quantity = quantity - 1, price = price * ? "
     "WHERE category = ? AND quantity > 0", (1.5, 3)),
    ("DELETE FROM bids WHERE item_id = ? AND amount < ?", (2, 1000.0)),
], ids=["point-select", "order-by", "group-having", "left-join-group",
        "insert", "update", "delete"])
def test_cached_statement_compiles_nothing(db, monkeypatch, sql, params):
    compiled = _count_compilations(monkeypatch)
    first = db.execute(sql, params)
    assert compiled, "planning compiles the statement's expressions"
    assert first.kind != "select" or first.rows
    del compiled[:]
    db.execute(sql, params)
    assert compiled == []


def test_replayed_page_stream_neither_plans_nor_compiles(monkeypatch):
    """Identical read-only pages through the EJB stack -- the CMP flood
    of short statements -- are served entirely from cached plans."""
    import random

    from repro.apps import build_app

    app = build_app("bookstore", tiny=True)
    presentation, __ = app.deploy("ejb")
    rng = random.Random(12)
    state = app.make_state(rng)
    requests = [app.make_request(name, rng, state)
                for name in app.interaction_names()
                if app.is_read_only(name)]
    for request in requests:
        presentation.handle(request)
    cached_plans = len(app.database._plan_cache)
    statements = app.database.queries_executed
    compiled = _count_compilations(monkeypatch)
    for request in requests:
        presentation.handle(request)
    assert app.database.queries_executed > statements
    assert len(app.database._plan_cache) == cached_plans
    assert compiled == []


def test_ejb_page_stream_prepares_each_sql_text_once(monkeypatch):
    """``_prepare`` is the plan cache's miss branch: a page stream reaches
    it once per distinct SQL text, however often the text recurs."""
    import random

    from repro.apps import build_app

    prepared, executed = [], []
    real_prepare, real_execute = Database._prepare, Database.execute

    def counting_prepare(self, sql):
        prepared.append(sql)
        return real_prepare(self, sql)

    def counting_execute(self, sql, params=(), session=None):
        executed.append(sql)
        return real_execute(self, sql, params, session)

    app = build_app("bookstore", tiny=True)
    presentation, __ = app.deploy("ejb")
    monkeypatch.setattr(Database, "_prepare", counting_prepare)
    monkeypatch.setattr(Database, "execute", counting_execute)
    rng = random.Random(12)
    state = app.make_state(rng)
    for __ in range(2):
        for name in app.interaction_names():
            presentation.handle(app.make_request(name, rng, state))
    assert len(executed) > 40 * len(prepared)
    assert len(prepared) == len(set(prepared))
    assert set(prepared) == set(executed)


# -- the per-table scale kept by Database._table_scale -----------------------------

def _fresh_copy(db, cost_model=None):
    """A new Database with the same schemas, statistics, indexes and
    live rows -- and therefore freshly built scaling contexts."""
    import copy

    fresh = Database(cost_model=cost_model)
    for name, table in db.tables.items():
        fresh.create_table(copy.deepcopy(table.schema))
        declared = {index.name for index in table.schema.indexes}
        for index in table.indexes.values():
            if index.name not in declared and index.name != f"pk_{name}":
                fresh.create_index(name, IndexDef(
                    index.name, index.columns, unique=index.unique))
        fresh.load_rows(name, list(table.rows_as_dicts()))
    return fresh


_PRICED = [
    ("SELECT COUNT(*) FROM scaled WHERE x > -1", ()),             # scan
    ("SELECT id FROM scaled WHERE grp = ?", (1,)),                # scaled probe
    ("SELECT x FROM scaled WHERE id = ?", (3,)),                  # unique probe
    ("SELECT id FROM scaled WHERE x > -1 ORDER BY x", ()),        # scan + sort
    ("SELECT id FROM scaled WHERE x = ?", (4,)),                  # new index
]


def _assert_prices_like_fresh(db):
    fresh = _fresh_copy(db, db.cost_model)
    for sql, params in _PRICED:
        got, want = db.execute(sql, params), fresh.execute(sql, params)
        assert (got.rows, repr(got.stats), got.cost) == \
            (want.rows, repr(want.stats), want.cost), sql


def _scaled_schema(nominal, distinct):
    schema = TableSchema(
        name="scaled",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("grp", ColumnType.INT),
                 Column("x", ColumnType.INT)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_grp", ("grp",))])
    schema.stats.nominal_rows = nominal
    schema.stats.distinct_values = dict(distinct)
    return schema


def test_table_scale_follows_row_count_catalog_and_statistics():
    db = Database()
    db.create_table(_scaled_schema(10_000, {"grp": 4}))
    _assert_prices_like_fresh(db)                      # empty table
    db.load_rows("scaled", [{"grp": i % 4, "x": i} for i in range(40)])
    _assert_prices_like_fresh(db)
    assert db._table_scale("scaled") is db._table_scale("scaled")
    for i in range(3):
        db.execute("INSERT INTO scaled (grp, x) VALUES (?, ?)", (i, 100 + i))
        _assert_prices_like_fresh(db)
    db.execute("DELETE FROM scaled WHERE id = ?", (3,))
    _assert_prices_like_fresh(db)
    db.execute("DELETE FROM scaled WHERE grp = ?", (2,))
    _assert_prices_like_fresh(db)
    db.create_index("scaled", IndexDef("idx_x", ("x",)))
    _assert_prices_like_fresh(db)

    # An ablation cost model reads the same scales.
    db.cost_model = db.cost_model.with_overrides(per_row_scanned=1e-3,
                                                 per_row_sorted=2e-3)
    _assert_prices_like_fresh(db)

    # Same name, same row count, other statistics.
    rows = list(db.table("scaled").rows_as_dicts())
    db.execute("DROP TABLE scaled")
    db.create_table(_scaled_schema(500, {"grp": 40, "x": 7}))
    db.load_rows("scaled", rows)
    _assert_prices_like_fresh(db)

    # Statistics declared after statements were priced.
    stats = db.table("scaled").schema.stats
    stats.nominal_rows = 80_000
    _assert_prices_like_fresh(db)
    stats.distinct_values = {"grp": 2}
    _assert_prices_like_fresh(db)
    stats.distinct_values["grp"] = 9
    _assert_prices_like_fresh(db)
    # With D above the loaded rows the probe factor is nominal / D, not
    # nominal / loaded, so an in-place change of D must reprice too.
    assert len(db.table("scaled")) < 100
    stats.distinct_values["grp"] = 100
    _assert_prices_like_fresh(db)
    assert db._table_scale("scaled").probe_factor("grp") == 800
    stats.distinct_values["grp"] = 1000
    _assert_prices_like_fresh(db)
    assert db._table_scale("scaled").probe_factor("grp") == 80
