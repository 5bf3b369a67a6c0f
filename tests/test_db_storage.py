"""Unit tests for row storage and index maintenance internals."""

import bisect
import inspect
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db.errors import IntegrityError, SqlError
from repro.db.index import HashIndex, SortedIndex
from repro.db.schema import Column, ColumnType, IndexDef, TableSchema
from repro.db.storage import Table


def make_table(**kwargs):
    defaults = dict(
        name="t",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("k", ColumnType.INT),
                 Column("v", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_k", ("k",))])
    defaults.update(kwargs)
    return Table(TableSchema(**defaults))


# ------------------------------------------------------------------- table

def test_insert_defaults_and_unknown_columns():
    table = make_table()
    rowid = table.insert({"k": 1})
    assert table.get_row(rowid) == [1, 1, None]
    with pytest.raises(SqlError):
        table.insert({"ghost": 1})


def test_auto_increment_respects_explicit_values():
    table = make_table()
    table.insert({"id": 10, "k": 1})
    rowid = table.insert({"k": 2})
    assert table.get_row(rowid)[0] == 11
    assert table.next_auto_increment == 12


def test_tombstone_delete_and_scan():
    table = make_table()
    ids = [table.insert({"k": i}) for i in range(5)]
    table.delete_row(ids[2])
    assert len(table) == 4
    assert list(table.scan()) == [0, 1, 3, 4]
    assert table.get_row(ids[2]) is None
    table.delete_row(ids[2])     # idempotent
    assert len(table) == 4


def test_update_moves_index_entries():
    table = make_table()
    rowid = table.insert({"k": 5})
    index = table.indexes["idx_k"]
    assert index.lookup((5,)) == [rowid]
    table.update_row(rowid, {"k": 9})
    assert index.lookup((5,)) == []
    assert index.lookup((9,)) == [rowid]


def test_update_rollback_on_unique_violation():
    table = make_table(indexes=[IndexDef("uk", ("k",), unique=True)])
    table.insert({"k": 1, "v": "a"})
    second = table.insert({"k": 2, "v": "b"})
    with pytest.raises(IntegrityError):
        table.update_row(second, {"k": 1, "v": "changed"})
    # The whole row image is restored, not just the indexed column.
    assert table.get_row(second) == [2, 2, "b"]
    assert sorted(table.indexes["uk"].lookup((2,))) == [second]


def test_update_refuses_null_in_not_null_column_and_primary_key():
    table = make_table(
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("k", ColumnType.INT),
                 Column("v", ColumnType.VARCHAR, nullable=False)],
        indexes=[IndexDef("idx_k", ("k",)), IndexDef("idx_v", ("v",))])
    rowid = table.insert({"k": 5, "v": "a"})
    with pytest.raises(IntegrityError) as refused:
        table.insert({"k": 6, "v": None})
    with pytest.raises(IntegrityError) as also_refused:
        table.update_row(rowid, {"k": 6, "v": None})
    assert str(also_refused.value) == str(refused.value)
    with pytest.raises(IntegrityError, match="NULL primary key"):
        table.update_row(rowid, {"id": None})
    assert table.get_row(rowid) == [1, 5, "a"]
    for name, key in (("pk_t", (1,)), ("idx_k", (5,)), ("idx_v", ("a",))):
        assert table.indexes[name].lookup(key) == [rowid]
        assert table.indexes[name].null_rows() == []


def test_update_refused_on_a_value_touches_no_index():
    # Values are admitted before any index entry is taken out, so the
    # refused row keeps its place in the NULL list it is in.
    table = make_table(
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("k", ColumnType.INT),
                 Column("v", ColumnType.VARCHAR, nullable=False)],
        indexes=[IndexDef("idx_kv", ("k", "v"))])
    first = table.insert({"v": "a"})
    second = table.insert({"v": "b"})
    for changes in ({"k": 1, "v": None}, {"k": 1, "v": 7}):
        with pytest.raises((IntegrityError, SqlError)):
            table.update_row(first, changes)
    assert table.indexes["idx_kv"].null_rows() == [first, second]


def test_insert_rollback_on_unique_violation():
    table = make_table(indexes=[IndexDef("uk", ("k",), unique=True),
                                IndexDef("idx_v", ("v",))])
    table.insert({"k": 1, "v": "a"})
    with pytest.raises(IntegrityError):
        table.insert({"k": 1, "v": "b"})
    assert len(table) == 1
    assert table.indexes["idx_v"].lookup(("b",)) == []


def test_create_index_backfills_existing_rows():
    table = make_table(indexes=[])
    for i in range(4):
        table.insert({"k": i % 2})
    table.create_index(IndexDef("late", ("k",)))
    assert sorted(table.indexes["late"].lookup((0,))) == [0, 2]


def test_duplicate_index_name_rejected():
    table = make_table()
    with pytest.raises(SqlError):
        table.create_index(IndexDef("idx_k", ("k",)))


def test_rows_as_dicts():
    table = make_table()
    table.insert({"k": 1, "v": "x"})
    assert list(table.rows_as_dicts()) == [{"id": 1, "k": 1, "v": "x"}]


def test_index_on_prefix_match():
    table = make_table(indexes=[IndexDef("ab", ("k", "v"))])
    assert table.index_on(["k"]).name == "ab"
    assert table.index_on(["v"]) is None
    assert table.sorted_index_on(("k",)).name == "ab"


# ------------------------------------------------------------------ indexes

def test_sorted_index_range_bounds():
    index = SortedIndex("s", ("k",))
    for i in range(10):
        index.insert((i,), i)
    assert list(index.range((3,), (6,))) == [3, 4, 5, 6]
    assert list(index.range((3,), (6,), low_inclusive=False,
                            high_inclusive=False)) == [4, 5]
    assert list(index.range(None, (2,))) == [0, 1, 2]
    assert list(index.range((8,), None)) == [8, 9]


def test_sorted_index_scan_directions():
    index = SortedIndex("s", ("k",))
    for i in (3, 1, 2):
        index.insert((i,), i)
    assert list(index.scan()) == [1, 2, 3]
    assert list(index.scan(descending=True)) == [3, 2, 1]


def test_null_keys_live_in_side_bucket():
    for index in (SortedIndex("s", ("k",)), HashIndex("h", ("k",))):
        index.insert((None,), 7)
        index.insert((1,), 8)
        assert index.lookup((None,)) == []
        assert index.null_rows() == [7]
        assert len(index) == 2
        index.delete((None,), 7)
        assert index.null_rows() == []


def test_hash_index_unique_violation():
    index = HashIndex("h", ("k",), unique=True)
    index.insert((1,), 0)
    with pytest.raises(IntegrityError):
        index.insert((1,), 1)


def test_sorted_index_delete_specific_rowid():
    index = SortedIndex("s", ("k",))
    index.insert((1,), 10)
    index.insert((1,), 11)
    index.delete((1,), 10)
    assert index.lookup((1,)) == [11]


# ------------------------------------------------- the column plan, checked
#
# Table.insert / update_row store a value of exactly its column's class
# as is and check every other one.  ReferenceTable is the seed's code:
# every value coerced, then NOT NULL and accepts() column by column.

class ReferenceTable(Table):
    def _key_of(self, index, row):
        return tuple(row[self.column_pos(c)] for c in index.columns)

    def insert(self, values):
        row = []
        consumed = 0
        for col in self.schema.columns:
            if col.name in values:
                value = col.type.coerce(values[col.name])
                consumed += 1
            else:
                value = col.default
            row.append(value)
        if consumed != len(values):
            unknown = set(values) - set(self.schema.column_names())
            raise SqlError(
                f"insert into {self.name!r}: unknown columns {sorted(unknown)}")
        pk = self.schema.primary_key
        if pk is not None:
            pk_pos = self.column_pos(pk)
            if row[pk_pos] is None:
                if not self.schema.auto_increment:
                    raise IntegrityError(
                        f"table {self.name!r}: NULL primary key")
                row[pk_pos] = self._next_auto
                self._next_auto += 1
            elif self.schema.auto_increment and isinstance(row[pk_pos], int):
                self._next_auto = max(self._next_auto, row[pk_pos] + 1)
        for col, value in zip(self.schema.columns, row):
            if value is None and not col.nullable and col.name != pk:
                raise IntegrityError(
                    f"table {self.name!r}: column {col.name!r} is NOT NULL")
            if not col.type.accepts(value):
                raise SqlError(
                    f"table {self.name!r}.{col.name}: {value!r} is not "
                    f"a {col.type.value}")
        rowid = len(self._rows)
        inserted = []
        try:
            self._rows.append(row)
            for index in self.indexes.values():
                index.insert(self._key_of(index, row), rowid)
                inserted.append(index)
        except IntegrityError:
            for index in inserted:
                index.delete(self._key_of(index, row), rowid)
            self._rows.pop()
            raise
        self._live += 1
        return rowid

    def update_row(self, rowid, changes):
        row = self._rows[rowid]
        if row is None:
            raise SqlError(f"update of deleted row {rowid} in {self.name!r}")
        names = self.schema.column_names()
        if any(name not in names for name in changes):
            unknown = set(changes) - set(names)
            raise SqlError(
                f"update {self.name!r}: unknown columns {sorted(unknown)}")
        admitted = {}
        for name, value in changes.items():
            col = self.schema.column(name)
            coerced = col.type.coerce(value)
            if coerced is None and name == self.schema.primary_key:
                raise IntegrityError(f"table {self.name!r}: NULL primary key")
            if coerced is None and not col.nullable:
                raise IntegrityError(
                    f"table {self.name!r}: column {name!r} is NOT NULL")
            if not col.type.accepts(coerced):
                raise SqlError(
                    f"table {self.name!r}.{name}: {value!r} is not "
                    f"a {col.type.value}")
            admitted[name] = coerced
        affected = [index for index in self.indexes.values()
                    if any(c in changes for c in index.columns)]
        old_image = list(row)
        old_keys = [(index, self._key_of(index, row)) for index in affected]
        for index, key in old_keys:
            index.delete(key, rowid)
        for name, value in admitted.items():
            row[self.column_pos(name)] = value
        reinserted = []
        try:
            for index in affected:
                index.insert(self._key_of(index, row), rowid)
                reinserted.append(index)
        except IntegrityError:
            for index in reinserted:
                index.delete(self._key_of(index, row), rowid)
            row[:] = old_image
            for index, key in old_keys:
                index.insert(key, rowid)
            raise


class MyInt(int):
    pass


class MyStr(str):
    pass


def plan_schema(auto_increment):
    return TableSchema(
        name="p",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("n", ColumnType.INT),
                 Column("f", ColumnType.FLOAT, nullable=False, default=1.5),
                 Column("d", ColumnType.DATETIME),
                 Column("s", ColumnType.VARCHAR, nullable=False),
                 Column("t", ColumnType.TEXT, default="x"),
                 Column("bad", ColumnType.INT, default="zero")],
        primary_key="id", auto_increment=auto_increment,
        indexes=[IndexDef("uk_n", ("n",), unique=True, kind="hash"),
                 IndexDef("idx_sn", ("s", "n")),
                 IndexDef("idx_f", ("f",))])


small = st.integers(-3, 6)
fraction = st.floats(-4, 4, allow_nan=False)
text = st.sampled_from(["", "a", "b"])
any_value = st.one_of(
    small, small.map(float), small.map(MyInt), st.booleans(), st.none(),
    fraction, text, text.map(MyStr), st.just(b"raw"), st.just((1,)))
names = st.sampled_from(["id", "n", "f", "d", "s", "t", "bad", "ghost"])
# What each column admits, exact or through coerce(), so that tables
# fill up and unique keys collide ...
whole = st.one_of(small, small.map(float), small.map(MyInt), st.booleans())
real = st.one_of(fraction, small, small.map(MyInt))
admitted_row = st.fixed_dictionaries(
    {"s": st.one_of(text, text.map(MyStr)), "bad": small},
    optional={"id": st.one_of(whole, st.none()), "n": st.one_of(whole, st.none()),
              "f": real, "d": st.one_of(real, st.none()),
              "t": st.one_of(text, st.none())})
# ... the same with one value of any kind in any column, and anything.
row_values = st.one_of(
    admitted_row,
    st.builds(lambda row, name, value: {**row, name: value},
              admitted_row, names, any_value),
    st.dictionaries(names, any_value))
operation = st.one_of(
    st.tuples(st.just("insert"), row_values),
    st.tuples(st.just("update"), st.integers(0, 5), row_values),
    st.tuples(st.just("update"), st.integers(0, 5),
              st.dictionaries(names, st.none(), min_size=1, max_size=2)))


def image(table):
    """Everything an insert or update may touch; classes included, so
    ``True`` for ``1`` or a subclass instance for its base shows."""
    def exact(values):
        return [(value, value.__class__) for value in values]
    return {
        "rows": [row and exact(row) for row in table._rows],
        "live": len(table),
        "indexes": {
            name: (sorted(index.entries(), key=lambda entry: entry[0])
                   if isinstance(index, HashIndex) else index.entries(),
                   index.null_rows())
            for name, index in table.indexes.items()}}


def unordered(image):
    """``image`` with each index's NULL-key rows as a set: an update
    refused on a unique key files the rows it took out of a NULL list
    at its end again, and no plan reads that order."""
    return {**image, "indexes": {
        name: (entries, sorted(nulls))
        for name, (entries, nulls) in image["indexes"].items()}}


def attempt(table, op):
    try:
        if op[0] == "insert":
            return table.insert(op[1])
        if table.get_row(op[1]) is None:
            return "no such row"
        return table.update_row(op[1], op[2])
    except (SqlError, IntegrityError) as exc:
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(auto_increment=st.booleans(), ops=st.lists(operation, max_size=12))
def test_column_plan_admits_exactly_what_the_checks_admit(auto_increment, ops):
    table = Table(plan_schema(auto_increment))
    reference = ReferenceTable(plan_schema(auto_increment))
    for op in ops:
        before = image(table)
        outcome = attempt(table, op)
        assert outcome == attempt(reference, op)
        assert image(table) == image(reference)
        assert table.next_auto_increment == reference.next_auto_increment
        if isinstance(outcome, tuple):
            # A refused insert or update -- a unique-key violation or a
            # NULL in a NOT NULL column included -- leaves the row array
            # and every index as they were.
            assert unordered(image(table)) == unordered(before)


def test_building_the_default_bookstore_checks_no_value(monkeypatch):
    # Both data generators hand insert() exact ints, floats and strs
    # only; if one stops doing so, or the plan stops recognising them,
    # the set-up saving is gone and this says so.
    from repro.apps.bookstore import build_bookstore_database
    calls = []
    for check in ("coerce", "accepts"):
        monkeypatch.setattr(
            ColumnType, check,
            lambda self, value, check=check: calls.append(check))
    database = build_bookstore_database()
    assert len(database.table("items")) > 1000
    assert calls == []


# ------------------------------------------ the index arrays, checked
#
# SortedIndex keeps two parallel arrays and stores a one-column key
# bare.  ReferenceSortedIndex is the seed's code: one sorted list of
# (key tuple, rowid) pairs.

class ReferenceSortedIndex:
    def __init__(self, name, columns, unique=False):
        self.name = name
        self.unique = unique
        self._entries = []
        self._null_rows = []

    def insert(self, key, rowid):
        if None in key:
            self._null_rows.append(rowid)
            return
        if not self.unique:
            bisect.insort(self._entries, (key, rowid))
            return
        pos = bisect.bisect_left(self._entries, (key, -1))
        if pos < len(self._entries) and self._entries[pos][0] == key:
            raise IntegrityError(
                f"duplicate key {key!r} in unique index {self.name!r}")
        self._entries.insert(pos, (key, rowid))

    def delete(self, key, rowid):
        if None in key:
            try:
                self._null_rows.remove(rowid)
            except ValueError:
                pass
            return
        pos = bisect.bisect_left(self._entries, (key, rowid))
        if pos < len(self._entries) and self._entries[pos] == (key, rowid):
            self._entries.pop(pos)

    def lookup(self, key):
        if None in key:
            return []
        entries = self._entries
        lo = bisect.bisect_left(entries, (key, -1))
        n = len(entries)
        if self.unique:
            if lo < n and entries[lo][0] == key:
                return [entries[lo][1]]
            return []
        out = []
        while lo < n and entries[lo][0] == key:
            out.append(entries[lo][1])
            lo += 1
        return out

    def prefix(self, key):
        if None in key:
            return []
        lo = bisect.bisect_left(self._entries, (key, -1))
        out = []
        while lo < len(self._entries) and \
                self._entries[lo][0][:len(key)] == key:
            out.append(self._entries[lo][1])
            lo += 1
        return out

    def range(self, low, high, low_inclusive=True, high_inclusive=True):
        if (low is not None and None in low) or \
                (high is not None and None in high):
            return
        entries = self._entries
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(entries, (low, -1))
        else:
            lo = bisect.bisect_right(entries, (low, float("inf")))
        if high is None:
            hi = len(entries)
        elif high_inclusive:
            hi = bisect.bisect_right(entries, (high, float("inf")))
        else:
            hi = bisect.bisect_left(entries, (high, -1))
        for pos in range(lo, hi):
            yield entries[pos][1]

    def scan(self, descending=False):
        if descending:
            for pos in range(len(self._entries) - 1, -1, -1):
                yield self._entries[pos][1]
        else:
            for __, rowid in self._entries:
                yield rowid

    def null_rows(self):
        return list(self._null_rows)

    def __len__(self):
        return len(self._entries) + len(self._null_rows)


# Equal int / float keys, NULLs, and few enough values to collide.
key_value = st.sampled_from([0, 1, 1.0, 2, 2.0, 3, None])
index_op = st.tuples(st.sampled_from(["insert", "delete"]),
                     st.tuples(key_value, key_value), st.integers(0, 5))


def outcome(call, *args):
    try:
        result = call(*args)
        return None if result is None else list(result)
    except IntegrityError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(width=st.sampled_from([1, 2]), unique=st.booleans(),
       ops=st.lists(index_op, max_size=20))
def test_index_arrays_answer_as_the_pair_list_does(width, unique, ops):
    columns = ("a", "b")[:width]
    index = SortedIndex("s", columns, unique)
    reference = ReferenceSortedIndex("s", columns, unique)
    for op, key, rowid in ops:
        key = key[:width]
        assert outcome(getattr(index, op), key, rowid) == \
            outcome(getattr(reference, op), key, rowid)
        assert repr(index.entries()) == repr(reference._entries)
    probes = [(value,) for value in (0, 1, 1.5, 2.0, 3, 4, None)]
    if width == 2:
        probes += [(a, b) for a in (0, 1.0, 2) for b in (0, 1, 2.0, None)]
    for key in probes:
        for ask in ("lookup", "prefix"):
            assert outcome(getattr(index, ask), key) == \
                outcome(getattr(reference, ask), key)
    bounds = [None, (1,), (1.5,), (2.0,), (None,)]
    if width == 2:
        bounds += [(1.0, 1), (2, 2.0), (0, None)]
    for low in bounds:
        for high in bounds:
            for flags in ((True, True), (True, False), (False, True),
                          (False, False)):
                assert list(index.range(low, high, *flags)) == \
                    list(reference.range(low, high, *flags))
    for descending in (False, True):
        assert list(index.scan(descending)) == \
            list(reference.scan(descending))
    assert index.null_rows() == reference.null_rows()
    assert len(index) == len(reference)


def test_one_column_sorted_index_entries_are_two_list_slots():
    # A one-column key is stored bare, not as a 1-tuple inside a
    # (key, rowid) pair: 16 bytes an entry plus list slack, where the
    # pair list paid 112.  If the tuples come back, this says so.
    table = make_table(indexes=[], primary_key=None, auto_increment=False)
    for i in range(10_000):
        table.insert({"id": i, "k": i % 97, "v": "x"})
    source, first = inspect.getsourcelines(Table._key_of)
    key_of = range(first, first + len(source))
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        table.create_index(IndexDef("uk_id", ("id",), unique=True))
        table.create_index(IndexDef("idx_k", ("k",)))
        grown = tracemalloc.take_snapshot().compare_to(before, "lineno")
    finally:
        tracemalloc.stop()
    held = sum(
        stat.size_diff for stat in grown
        if stat.traceback[0].filename.endswith("index.py") or
        (stat.traceback[0].filename.endswith("storage.py") and
         stat.traceback[0].lineno in key_of))
    indexes = [table.indexes["uk_id"], table.indexes["idx_k"]]
    assert held / sum(len(index) for index in indexes) <= 20
    assert not any(isinstance(key, tuple)
                   for index in indexes for key in index._keys)
