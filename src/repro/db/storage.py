"""Row storage: a heap of rows per table plus maintained indexes."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.db.errors import IntegrityError, SqlError
from repro.db.index import HashIndex, SortedIndex, make_index
from repro.db.schema import IndexDef, TableSchema

_MISSING = object()


class Table:
    """A heap of rows with tombstone deletion and index maintenance.

    Row ids are positions in the row array; deleted slots hold ``None``.
    The primary key (when declared) is backed by a unique index; an
    INT auto-increment primary key is assigned on insert when the caller
    passes ``None``, mirroring MySQL.

    The immutable schema is resolved once into the *column plan*,
    ``(name, row position, default, Column, exact class)`` per column,
    and each index's key columns into row positions (``_key_pos``).  A
    value of exactly ``ColumnType.exact_class()`` is stored as is;
    every other one (None, ``bool``, a subclass, a number of the other
    kind, a wrong type, a default) takes the checks one by one.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.name = schema.name
        self._colmap: Dict[str, int] = {
            col.name: pos for pos, col in enumerate(schema.columns)}
        self._plan = [
            (col.name, pos, col.default, col, col.type.exact_class())
            for pos, col in enumerate(schema.columns)]
        self._key_pos: Dict[str, tuple] = {}
        self._rows: List[Optional[list]] = []
        self._live = 0
        self._next_auto = 1
        self.indexes: Dict[str, object] = {}
        if schema.primary_key is not None:
            self._add_index(IndexDef(
                name=f"pk_{schema.name}", columns=(schema.primary_key,),
                unique=True, kind="sorted"))
        for index_def in schema.indexes:
            self._add_index(index_def)

    # -- shape ----------------------------------------------------------------

    def column_pos(self, name: str) -> int:
        try:
            return self._colmap[name]
        except KeyError:
            raise SqlError(
                f"table {self.name!r} has no column {name!r}") from None

    def __len__(self) -> int:
        return self._live

    @property
    def next_auto_increment(self) -> int:
        return self._next_auto

    # -- index plumbing ---------------------------------------------------------

    def _add_index(self, index_def: IndexDef) -> None:
        if index_def.name in self.indexes:
            raise SqlError(f"duplicate index name {index_def.name!r}")
        self._key_pos[index_def.name] = tuple(
            self.column_pos(col) for col in index_def.columns)
        index = make_index(index_def.kind, index_def.name,
                           index_def.columns, index_def.unique)
        # Backfill existing rows.
        for rowid, row in enumerate(self._rows):
            if row is not None:
                index.insert(self._key_of(index, row), rowid)
        self.indexes[index_def.name] = index

    def create_index(self, index_def: IndexDef) -> None:
        """Add a secondary index after table creation."""
        self._add_index(index_def)

    def drop_index(self, name: str) -> None:
        """Remove a secondary index; the primary-key index is protected."""
        if name not in self.indexes:
            raise SqlError(
                f"table {self.name!r} has no index {name!r}")
        if self.schema.primary_key is not None and \
                name == f"pk_{self.name}":
            raise SqlError(
                f"cannot drop primary-key index {name!r} of {self.name!r}")
        del self.indexes[name]

    def _key_of(self, index, row: Sequence) -> tuple:
        positions = self._key_pos[index.name]
        if len(positions) == 1:
            return (row[positions[0]],)
        return tuple([row[pos] for pos in positions])

    def index_on(self, columns: Sequence[str]):
        """The first index whose leading columns equal ``columns``, or None."""
        want = tuple(columns)
        for index in self.indexes.values():
            if tuple(index.columns[:len(want)]) == want:
                return index
        return None

    def sorted_index_on(self, columns: Sequence[str]) -> Optional[SortedIndex]:
        want = tuple(columns)
        for index in self.indexes.values():
            if isinstance(index, SortedIndex) and \
                    tuple(index.columns[:len(want)]) == want:
                return index
        return None

    # -- row operations -----------------------------------------------------------

    def insert(self, values: Dict[str, object]) -> int:
        """Insert one row from a column->value mapping; returns the rowid.

        Missing columns get their declared defaults; an omitted (or None)
        auto-increment key is assigned the next counter value.
        """
        row = []
        missing = 0
        unchecked = []
        get = values.get
        for name, pos, default, col, cls in self._plan:
            value = get(name, _MISSING)
            if value.__class__ is not cls:
                if value is _MISSING:
                    value = default
                    missing += 1
                else:
                    value = col.type.coerce(value)
                unchecked.append((pos, col, cls))
            row.append(value)
        if len(row) - missing != len(values):
            unknown = set(values) - set(self._colmap)
            raise SqlError(
                f"insert into {self.name!r}: unknown columns {sorted(unknown)}")

        pk = self.schema.primary_key
        if pk is not None:
            pk_pos = self._colmap[pk]
            if row[pk_pos] is None:
                if not self.schema.auto_increment:
                    raise IntegrityError(
                        f"table {self.name!r}: NULL primary key")
                row[pk_pos] = self._next_auto
                self._next_auto += 1
            elif self.schema.auto_increment and isinstance(row[pk_pos], int):
                self._next_auto = max(self._next_auto, row[pk_pos] + 1)

        for pos, col, cls in unchecked:
            value = row[pos]
            if value.__class__ is cls:
                continue    # coerced, defaulted or auto-assigned to it
            if value is None and not col.nullable and col.name != pk:
                raise IntegrityError(
                    f"table {self.name!r}: column {col.name!r} is NOT NULL")
            if not col.type.accepts(value):
                raise SqlError(
                    f"table {self.name!r}.{col.name}: {value!r} is not "
                    f"a {col.type.value}")

        rowid = len(self._rows)
        # Validate unique indexes *before* mutating any of them so a
        # violation leaves every index untouched.
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

    def delete_row(self, rowid: int) -> None:
        row = self._rows[rowid]
        if row is None:
            return
        for index in self.indexes.values():
            index.delete(self._key_of(index, row), rowid)
        self._rows[rowid] = None
        self._live -= 1

    def update_row(self, rowid: int, changes: Dict[str, object]) -> None:
        row = self._rows[rowid]
        if row is None:
            raise SqlError(f"update of deleted row {rowid} in {self.name!r}")
        touched = [name for name in changes if name in self._colmap]
        if len(touched) != len(changes):
            unknown = set(changes) - set(self._colmap)
            raise SqlError(
                f"update {self.name!r}: unknown columns {sorted(unknown)}")
        # Admit every value before touching the row or an index, so a
        # NULL or a value of the wrong type leaves both as they were.
        admitted = []
        for name, value in changes.items():
            _, pos, _, col, cls = self._plan[self._colmap[name]]
            if value.__class__ is not cls:
                coerced = col.type.coerce(value)
                if coerced is None and name == self.schema.primary_key:
                    raise IntegrityError(
                        f"table {self.name!r}: NULL primary key")
                if coerced is None and not col.nullable:
                    raise IntegrityError(
                        f"table {self.name!r}: column {name!r} is NOT NULL")
                if not col.type.accepts(coerced):
                    raise SqlError(
                        f"table {self.name!r}.{name}: {value!r} is not "
                        f"a {col.type.value}")
                value = coerced
            admitted.append((pos, value))
        affected = [
            index for index in self.indexes.values()
            if any(c in changes for c in index.columns)]
        old_image = list(row)
        old_keys = [(index, self._key_of(index, row)) for index in affected]
        for index, key in old_keys:
            index.delete(key, rowid)
        for pos, value in admitted:
            row[pos] = value
        reinserted = []
        try:
            for index in affected:
                index.insert(self._key_of(index, row), rowid)
                reinserted.append(index)
        except IntegrityError:
            # A unique key collided: restore the row image and the
            # original index entries.
            for index in reinserted:
                index.delete(self._key_of(index, row), rowid)
            row[:] = old_image
            for index, key in old_keys:
                index.insert(key, rowid)
            raise

    def get_row(self, rowid: int) -> Optional[list]:
        if 0 <= rowid < len(self._rows):
            return self._rows[rowid]
        return None

    def scan(self) -> Iterator[int]:
        """Yield live row ids in heap order."""
        for rowid, row in enumerate(self._rows):
            if row is not None:
                yield rowid

    def rows_as_dicts(self) -> Iterator[Dict[str, object]]:
        """Convenience for tests and data generators."""
        names = self.schema.column_names()
        for row in self._rows:
            if row is not None:
                yield dict(zip(names, row))
