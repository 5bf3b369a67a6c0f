"""Table schemas, column types, index definitions, and nominal statistics."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.db.errors import SqlError


class ColumnType(enum.Enum):
    """The engine's value domains (a practical subset of MySQL 3.23's)."""

    INT = "int"
    FLOAT = "float"
    VARCHAR = "varchar"
    TEXT = "text"
    DATETIME = "datetime"   # stored as float seconds since epoch

    def accepts(self, value) -> bool:
        if value is None:
            return True
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self in (ColumnType.FLOAT, ColumnType.DATETIME):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, str)

    def coerce(self, value):
        """Light coercion matching MySQL's permissiveness."""
        if value is None:
            return None
        if self is ColumnType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and value.is_integer():
                return int(value)
            return value
        if self in (ColumnType.FLOAT, ColumnType.DATETIME):
            if isinstance(value, int) and not isinstance(value, bool):
                return float(value)
            return value
        return value

    def exact_class(self) -> type:
        """The class this type stores unchanged: for a value of exactly
        it (no ``bool``, no subclass) :meth:`coerce` is the identity
        and :meth:`accepts` is true."""
        if self is ColumnType.INT:
            return int
        return float if self in (ColumnType.FLOAT, ColumnType.DATETIME) else str


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    type: ColumnType
    nullable: bool = True
    default: object = None
    # Approximate on-disk width, used by the cost model to price result
    # transfer and row examination.
    byte_width: int = 0

    def width(self) -> int:
        if self.byte_width:
            return self.byte_width
        return {
            ColumnType.INT: 4,
            ColumnType.FLOAT: 8,
            ColumnType.DATETIME: 8,
            ColumnType.VARCHAR: 32,
            ColumnType.TEXT: 256,
        }[self.type]


@dataclass(frozen=True)
class IndexDef:
    """A secondary (or primary) index over one or more columns."""

    name: str
    columns: tuple
    unique: bool = False
    # "hash" supports equality probes; "sorted" also supports ranges and
    # ordered scans.
    kind: str = "sorted"

    def __post_init__(self):
        if not self.columns:
            raise SqlError(f"index {self.name!r} needs at least one column")
        if self.kind not in ("hash", "sorted"):
            raise SqlError(f"index {self.name!r}: unknown kind {self.kind!r}")


@dataclass
class TableStats:
    """Nominal (full-scale) statistics used by the planner's cost model.

    The functional layer may hold a 1/100-scale dataset; declaring the
    paper's cardinalities here makes the priced cost of each query match
    the full-scale system regardless of the loaded scale.

    ``distinct_values`` declares the *full-scale* number of distinct keys
    for columns whose per-key cardinality grows with the table (e.g. the
    24 bookstore subjects: items-per-subject grows as items grow).
    Columns not declared are assumed to have per-key cardinality that is
    scale-invariant (primary keys, foreign keys into tables that scale
    together, like bids-per-item).
    """

    nominal_rows: int = 0
    avg_row_bytes: int = 64
    distinct_values: Dict[str, int] = field(default_factory=dict)


@dataclass
class TableSchema:
    """Schema of a single table."""

    name: str
    columns: Sequence[Column]
    primary_key: Optional[str] = None
    indexes: Sequence[IndexDef] = field(default_factory=tuple)
    auto_increment: bool = False
    stats: TableStats = field(default_factory=TableStats)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SqlError(f"table {self.name!r} has duplicate column names")
        if self.primary_key is not None and self.primary_key not in names:
            raise SqlError(
                f"table {self.name!r}: primary key {self.primary_key!r} "
                "is not a column")
        if self.auto_increment:
            if self.primary_key is None:
                raise SqlError(
                    f"table {self.name!r}: auto_increment requires a primary key")
            pk = self.column(self.primary_key)
            if pk.type is not ColumnType.INT:
                raise SqlError(
                    f"table {self.name!r}: auto_increment key must be INT")
        for index in self.indexes:
            for col in index.columns:
                if col not in names:
                    raise SqlError(
                        f"table {self.name!r}: index {index.name!r} references "
                        f"unknown column {col!r}")

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SqlError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> list:
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)
