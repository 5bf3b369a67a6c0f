"""Property-based tests (hypothesis) for the database engine."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import (Column, ColumnType, Database, IndexDef, LockError,
                      SqlError, TableSchema)


def fresh_db(kind="sorted"):
    db = Database()
    db.create_table(TableSchema(
        name="t",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("k", ColumnType.INT),
                 Column("v", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_k", ("k",), kind=kind)]))
    return db


rows_strategy = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50),
              st.text(alphabet="abcxyz", max_size=6)),
    min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, probe=st.integers(min_value=-50, max_value=50))
def test_index_lookup_equals_scan(rows, probe):
    """An indexed equality probe returns exactly what a scan would."""
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    indexed = db.execute("SELECT id FROM t WHERE k = ?", (probe,))
    assert not indexed.stats.rows_examined_scan
    expected = sorted(i + 1 for i, (k, __) in enumerate(rows) if k == probe)
    assert sorted(r[0] for r in indexed.rows) == expected


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy,
       low=st.integers(min_value=-50, max_value=50),
       high=st.integers(min_value=-50, max_value=50))
def test_range_query_matches_filter(rows, low, high):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    result = db.execute("SELECT k FROM t WHERE k >= ? AND k <= ?",
                        (low, high))
    expected = sorted(k for k, __ in rows if low <= k <= high)
    assert sorted(r[0] for r in result.rows) == expected


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_order_by_limit_prefix_of_full_sort(rows):
    """LIMIT n under ORDER BY returns the first n of the full ordering."""
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    full = db.execute("SELECT k, id FROM t ORDER BY k, id")
    limited = db.execute("SELECT k, id FROM t ORDER BY k, id LIMIT 7")
    assert limited.rows == full.rows[:7]
    keys = [r[0] for r in full.rows]
    assert keys == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy)
def test_aggregates_match_python(rows):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    result = db.execute("SELECT COUNT(*), SUM(k), MIN(k), MAX(k) FROM t")
    count, total, low, high = result.rows[0]
    keys = [k for k, __ in rows]
    assert count == len(keys)
    if keys:
        assert total == sum(keys)
        assert low == min(keys)
        assert high == max(keys)
    else:
        assert total is None and low is None and high is None


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy, threshold=st.integers(-50, 50))
def test_delete_then_count_consistent(rows, threshold):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    deleted = db.execute("DELETE FROM t WHERE k < ?", (threshold,))
    remaining = db.execute("SELECT COUNT(*) FROM t").scalar()
    expected_deleted = sum(1 for k, __ in rows if k < threshold)
    assert deleted.rowcount == expected_deleted
    assert remaining == len(rows) - expected_deleted
    # Index agrees with the heap after deletions.
    still = db.execute("SELECT COUNT(*) FROM t WHERE k >= ?",
                       (threshold,)).scalar()
    assert still == remaining


@settings(max_examples=50, deadline=None)
@given(rows=rows_strategy, delta=st.integers(-5, 5))
def test_update_preserves_row_count_and_index(rows, delta):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    db.execute("UPDATE t SET k = k + ?", (delta,))
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)
    for k, __ in rows[:5]:
        hits = db.execute("SELECT COUNT(*) FROM t WHERE k = ?",
                          (k + delta,)).scalar()
        expected = sum(1 for kk, __v in rows if kk == k)
        assert hits >= 1 if expected else True


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_hash_and_sorted_index_agree(rows):
    """The same equality probe gives identical answers on both index
    kinds."""
    sorted_db = fresh_db("sorted")
    hash_db = fresh_db("hash")
    for k, v in rows:
        sorted_db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
        hash_db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    for probe in {k for k, __ in rows[:10]}:
        a = sorted_db.execute("SELECT id FROM t WHERE k = ?", (probe,))
        b = hash_db.execute("SELECT id FROM t WHERE k = ?", (probe,))
        assert sorted(a.rows) == sorted(b.rows)


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy, limit=st.integers(1, 10),
       offset=st.integers(0, 10))
def test_limit_offset_window(rows, limit, offset):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    full = db.execute("SELECT id FROM t ORDER BY id")
    window = db.execute(
        f"SELECT id FROM t ORDER BY id LIMIT {limit} OFFSET {offset}")
    assert window.rows == full.rows[offset:offset + limit]


@settings(max_examples=40, deadline=None)
@given(rows=rows_strategy)
def test_group_by_totals_match(rows):
    db = fresh_db()
    for k, v in rows:
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", (k, v))
    grouped = db.execute("SELECT k, COUNT(*) FROM t GROUP BY k")
    from collections import Counter
    expected = Counter(k for k, __ in rows)
    assert {row[0]: row[1] for row in grouped.rows} == dict(expected)
    assert sum(row[1] for row in grouped.rows) == len(rows)


# -- differential against stdlib sqlite3 --------------------------------------
#
# The same rows and the same statements go to this engine and to SQLite;
# every query shape the executor has a dedicated loop or row-id source
# for must return the same rows.  Kept out, because this engine answers
# them differently today and that is not what this test is for: NULL in
# ``t.k``/``t.g`` (a NULL key lives outside a sorted index's ordered
# entries, so ordered and prefix scans skip the row) and ``<=`` / ``>``
# ranges on the leading column of the composite index (range bounds are
# 1-tuples).  ``t.v`` and the join column ``u.t_id`` may be NULL.

def paired_dbs(t_rows, u_rows):
    import sqlite3

    db = Database()
    db.create_table(TableSchema(
        name="t",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("k", ColumnType.INT),
                 Column("g", ColumnType.INT),
                 Column("v", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_kg", ("k", "g")),
                 IndexDef("idx_g", ("g",)),
                 IndexDef("idx_v", ("v",), kind="hash")]))
    db.create_table(TableSchema(
        name="u",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("t_id", ColumnType.INT),
                 Column("w", ColumnType.INT)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_u_t", ("t_id",))]))
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, "
                 "g INTEGER, v TEXT)")
    lite.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER, "
                 "w INTEGER)")
    for row in t_rows:
        db.execute("INSERT INTO t (k, g, v) VALUES (?, ?, ?)", row)
        lite.execute("INSERT INTO t (k, g, v) VALUES (?, ?, ?)", row)
    for row in u_rows:
        db.execute("INSERT INTO u (t_id, w) VALUES (?, ?)", row)
        lite.execute("INSERT INTO u (t_id, w) VALUES (?, ?)", row)
    return db, lite


def _canonical(rows, ordered):
    """Numbers as floats (SUM is a float here, an int in SQLite); rows
    as a multiset unless the statement fixes a total order."""
    rows = [tuple(float(v) if isinstance(v, (int, float)) else v
                  for v in row) for row in rows]
    return rows if ordered else sorted(rows, key=repr)


def assert_same_rows(db, lite, sql, params=(), ordered=False):
    ours = db.execute(sql, params).rows
    theirs = lite.execute(sql, params).fetchall()
    assert _canonical(ours, ordered) == _canonical(theirs, ordered), sql


small_int = st.integers(min_value=-4, max_value=6)
t_rows_strategy = st.lists(
    st.tuples(small_int, small_int,
              st.one_of(st.none(), st.text(alphabet="abx", max_size=2))),
    max_size=30)
u_rows_strategy = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(min_value=-2, max_value=12)),
              small_int),
    max_size=30)


@settings(max_examples=60, deadline=None)
@given(t_rows=t_rows_strategy, u_rows=u_rows_strategy, probe=small_int,
       low=small_int, high=small_int, text=st.text(alphabet="abx", max_size=2),
       limit=st.integers(0, 6), offset=st.integers(0, 6),
       mutate=st.booleans())
def test_select_shapes_match_sqlite(t_rows, u_rows, probe, low, high, text,
                                    limit, offset, mutate):
    db, lite = paired_dbs(t_rows, u_rows)
    if mutate:
        # Tombstones and re-keyed index entries under every later query.
        for sql, params in (
                ("UPDATE t SET g = g + 1, k = k - 1 WHERE k = ?", (probe,)),
                ("DELETE FROM t WHERE g >= ? AND g < ?", (low, high)),
                ("DELETE FROM u WHERE t_id = ?", (probe,)),
                ("UPDATE u SET w = w * 2 WHERE w > ?", (low,))):
            assert db.execute(sql, params).rowcount == \
                lite.execute(sql, params).rowcount, sql

    def same(sql, params=(), ordered=False):
        assert_same_rows(db, lite, sql, params, ordered)

    # Point selects: unique sorted index (pk), hash index.
    same("SELECT k, g, v FROM t WHERE id = ?", (probe,))
    same("SELECT id FROM t WHERE v = ?", (text,))
    # Prefix probe of the composite index, bare / filtered / ordered.
    same("SELECT id, g FROM t WHERE k = ?", (probe,))
    same("SELECT id FROM t WHERE k = ? AND v != ?", (probe, text))
    same("SELECT id FROM t WHERE k = ? AND g = ?", (probe, low))
    same(f"SELECT g FROM t WHERE k = ? ORDER BY g DESC LIMIT {limit}",
         (probe,), ordered=True)
    same(f"SELECT g FROM t WHERE k = ? ORDER BY g LIMIT {limit} "
         f"OFFSET {offset}", (probe,), ordered=True)
    # Range on a single-column sorted index.
    same("SELECT id FROM t WHERE g >= ? AND g < ?", (low, high))
    same("SELECT id FROM t WHERE g > ? AND g <= ? AND v IS NOT NULL",
         (low, high))
    # Two-table joins: pk probe, secondary-index probe, prefix probe
    # keyed by a nullable outer column, unindexable condition.
    same("SELECT t.id, u.id, u.w FROM t JOIN u ON u.t_id = t.id "
         "WHERE t.k = ?", (probe,))
    same("SELECT u.id, t.k FROM u JOIN t ON t.id = u.t_id WHERE u.w > ?",
         (low,))
    same("SELECT u.id, t.id FROM u JOIN t ON t.k = u.t_id WHERE u.w <= ?",
         (high,))
    same("SELECT t.id, u.id FROM t, u WHERE t.k + 1 = u.w + 1 AND t.g > ?",
         (low,))
    # LEFT JOIN: unmatched rows, anti-join, unmatched rows into groups.
    same("SELECT t.id, u.w FROM t LEFT JOIN u ON u.t_id = t.id "
         "WHERE t.g <= ?", (high,))
    same("SELECT t.id FROM t LEFT JOIN u ON u.t_id = t.id "
         "WHERE u.id IS NULL")
    same("SELECT t.id, COUNT(u.id), MAX(u.w) FROM t "
         "LEFT JOIN u ON u.t_id = t.id GROUP BY t.id")
    # Aggregates: grouped, over a join with HAVING, over nothing, sorted.
    same("SELECT k, COUNT(*), SUM(g), MIN(v), MAX(g), COUNT(v), AVG(g), "
         "COUNT(DISTINCT g) FROM t GROUP BY k")
    same("SELECT t.k, COUNT(*) AS n FROM t JOIN u ON u.t_id = t.id "
         "GROUP BY t.k HAVING COUNT(*) > 1")
    same("SELECT COUNT(*), SUM(g), MIN(g) FROM t WHERE k = ?", (probe,))
    same(f"SELECT k, SUM(g) AS total FROM t GROUP BY k "
         f"ORDER BY total DESC, k LIMIT {limit}", ordered=True)
    # ORDER BY ... LIMIT/OFFSET: index order with early stop, then sorts.
    same(f"SELECT k FROM t ORDER BY k DESC LIMIT {limit} OFFSET {offset}",
         ordered=True)
    same(f"SELECT k FROM t WHERE g > ? ORDER BY k LIMIT {limit}", (low,),
         ordered=True)
    same(f"SELECT k, id FROM t ORDER BY k DESC, id LIMIT {limit} "
         f"OFFSET {offset}", ordered=True)
    same("SELECT v, id FROM t ORDER BY v, id DESC", ordered=True)
    same("SELECT DISTINCT k FROM t")
    lite.close()


# -- unique-key probe path vs the row pipeline ---------------------------------
#
# A SELECT plan whose mark (``plan.probe``) is cleared runs the generic
# pipeline; both must report the same rows, ExecStats, QueryCost and
# access summary.  UPDATE and DELETE have no probe path (it bought 0.4 %
# of profile capture and was deleted); they run in the stream so that
# the SELECTs meet deleted rows and moved keys.

def probe_db(kind, rows, deleted):
    """Table ``p`` with a pk and a composite unique index of ``kind``;
    ``deleted`` picks rows to delete again (their keys then miss)."""
    db = Database()
    db.create_table(TableSchema(
        name="p",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("a", ColumnType.INT),
                 Column("b", ColumnType.INT),
                 Column("v", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("uq_ab", ("a", "b"), unique=True, kind=kind)]))
    db.create_table(TableSchema(
        name="other",
        columns=[Column("id", ColumnType.INT, nullable=False)],
        primary_key="id", auto_increment=True))
    db.load_rows("p", [{"a": a, "b": b, "v": v} for a, b, v in rows])
    for pos in sorted(deleted):
        if pos < len(rows):
            db.table("p").delete_row(pos)
    return db


def _unique_rows(rows):
    """Drop rows whose non-NULL (a, b) repeats (NULL keys never clash)."""
    seen, out = set(), []
    for a, b, v in rows:
        if b is not None and (a, b) in seen:
            continue
        seen.add((a, b))
        out.append((a, b, v))
    return out


small_key = st.integers(min_value=0, max_value=6)
probe_rows_strategy = st.lists(
    st.tuples(small_key, st.one_of(st.none(), small_key),
              st.text(alphabet="abc", max_size=3)),
    max_size=25).map(_unique_rows)

# (sql, how many keys it takes, does the planner mark it a probe?  --
# None: not a SELECT, nothing to mark)
PROBE_SHAPES = [
    ("SELECT v, a FROM p WHERE id = ?", 1, True),
    ("SELECT * FROM p WHERE a = ? AND b = ?", 2, True),
    ("SELECT v FROM p WHERE id = ? AND a > ?", 2, True),       # residual
    ("SELECT v FROM p WHERE a = ?", 1, False),                 # partial key
    ("SELECT v FROM p WHERE id = ? LIMIT 0", 1, False),
    ("SELECT v FROM p WHERE id = ? LIMIT 1 OFFSET 0", 1, False),
    ("SELECT DISTINCT v FROM p WHERE id = ?", 1, False),
    ("SELECT v FROM p WHERE id = ? ORDER BY v", 1, False),
    ("SELECT COUNT(*) FROM p WHERE id = ?", 1, False),
    ("UPDATE p SET v = 'w' WHERE id = ?", 1, None),
    ("UPDATE p SET b = b + 1 WHERE a = ? AND b = ?", 2, None),  # moves the key
    ("UPDATE p SET v = 'x' WHERE id = ? AND a > ?", 2, None),
    ("DELETE FROM p WHERE id = ?", 1, None),
    ("DELETE FROM p WHERE a = ? AND b = ?", 2, None),
]

probe_ops_strategy = st.lists(
    st.tuples(st.integers(0, len(PROBE_SHAPES) - 1),
              st.integers(min_value=0, max_value=30),       # pk: hit or miss
              st.one_of(st.none(), small_key),               # NULL key too
              small_key),
    min_size=1, max_size=30)


def _plan(db, sql):
    prepared = db._plan_cache.get(sql) or db._prepare(sql)
    return prepared.plan


def _outcome(db, sql, params):
    try:
        result = db.execute(sql, params)
    except Exception as exc:       # both paths must fail alike, too
        return type(exc), str(exc)
    return (result.kind, result.columns, result.rows, result.rowcount,
            repr(result.stats), result.cost, result.stats.access_summary())


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["sorted", "hash"]), rows=probe_rows_strategy,
       deleted=st.sets(st.integers(0, 24), max_size=6),
       ops=probe_ops_strategy)
def test_probe_path_equals_row_pipeline(kind, rows, deleted, ops):
    probing = probe_db(kind, rows, deleted)
    generic = probe_db(kind, rows, deleted)
    for shape, pk, nullable_key, key in ops:
        sql, arity, marked = PROBE_SHAPES[shape]
        if "id = ?" in sql:
            params = (pk, key)[:arity]
        else:
            params = (key, nullable_key)[:arity]
        if marked is not None:
            assert _plan(probing, sql).probe is marked, sql
            _plan(generic, sql).probe = False
        assert _outcome(probing, sql, params) == \
            _outcome(generic, sql, params), (sql, params)
    everything = "SELECT * FROM p ORDER BY id"
    assert probing.execute(everything).rows == generic.execute(everything).rows
    # The unique index still agrees with the heap on both sides.
    for a, b, __ in rows:
        by_key = ("SELECT id FROM p WHERE a = ? AND b = ?", (a, b))
        assert probing.execute(*by_key).rows == generic.execute(*by_key).rows


@pytest.mark.parametrize("sql, params", [
    ("SELECT v FROM p WHERE id = ?", (1,)),
    ("UPDATE p SET v = 'w' WHERE id = ?", (1,)),
    ("DELETE FROM p WHERE id = ?", (1,)),
])
def test_probe_statement_checks_locks_and_parameters_first(monkeypatch, sql,
                                                           params):
    """Lock enforcement and the parameter count come before any row is
    read, for a probe SELECT as for pipeline statements."""
    from repro.db import engine

    db = probe_db("sorted", [(1, 1, "a"), (2, 2, "b")], ())
    if sql.startswith("SELECT"):
        assert _plan(db, sql).probe

    def must_not_run(*args):
        raise AssertionError("statement reached the executor")
    for runner in ("run_select", "run_update", "run_delete"):
        monkeypatch.setattr(engine, runner, must_not_run)

    with pytest.raises(SqlError, match="takes 1 parameters, got 2"):
        db.execute(sql, params + (9,))
    session = db.open_session()
    db.execute("LOCK TABLES other WRITE", session=session)
    with pytest.raises(LockError, match="'p' was not locked"):
        db.execute(sql, params, session)
    db.execute("UNLOCK TABLES", session=session)
    monkeypatch.undo()
    assert db.execute(sql, params, session).rowcount == 1
