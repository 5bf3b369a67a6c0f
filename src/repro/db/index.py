"""Hash and sorted indexes over table rows.

Keys are tuples of column values; row ids are slot numbers in the table's
row array.  ``None`` never enters an index key comparison problem because
keys containing ``None`` are kept in a side bucket reachable only by
IS NULL probes (matching MySQL's behaviour that ``col = NULL`` never
matches).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional

from repro.db.errors import IntegrityError


class HashIndex:
    """Equality-only index: dict from key tuple to row-id list."""

    __slots__ = ("name", "columns", "unique", "_map", "_null_rows")

    def __init__(self, name: str, columns: tuple, unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._map: dict = {}
        self._null_rows: list = []

    def insert(self, key: tuple, rowid: int) -> None:
        if None in key:
            self._null_rows.append(rowid)
            return
        bucket = self._map.get(key)
        if bucket is None:
            self._map[key] = [rowid]
        elif self.unique:
            raise IntegrityError(
                f"duplicate key {key!r} in unique index {self.name!r}")
        else:
            bucket.append(rowid)

    def delete(self, key: tuple, rowid: int) -> None:
        if None in key:
            try:
                self._null_rows.remove(rowid)
            except ValueError:
                pass
            return
        bucket = self._map.get(key)
        if bucket is not None:
            try:
                bucket.remove(rowid)
            except ValueError:
                pass
            if not bucket:
                del self._map[key]

    def lookup(self, key: tuple) -> list:
        if None in key:
            return []
        return self._map.get(key, [])

    def null_rows(self) -> list:
        return list(self._null_rows)

    def __len__(self) -> int:
        return sum(len(b) for b in self._map.values()) + len(self._null_rows)


class SortedIndex:
    """Order-preserving index: a sorted array of (key, rowid) pairs.

    Supports equality probes, half-open/closed range scans, and ordered
    iteration in both directions (for ORDER BY ... LIMIT plans).
    """

    __slots__ = ("name", "columns", "unique", "_entries", "_null_rows")

    def __init__(self, name: str, columns: tuple, unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._entries: list = []   # sorted list of (key, rowid)
        self._null_rows: list = []

    def insert(self, key: tuple, rowid: int) -> None:
        if None in key:
            self._null_rows.append(rowid)
            return
        entries = self._entries
        if not self.unique:
            bisect.insort(entries, (key, rowid))
            return
        # Row ids are >= 0, so (key, -1) sorts before every entry of
        # ``key``: one bisect serves the uniqueness test and, no equal
        # key being present, is also where (key, rowid) belongs.
        pos = bisect.bisect_left(entries, (key, -1))
        if pos < len(entries) and entries[pos][0] == key:
            raise IntegrityError(
                f"duplicate key {key!r} in unique index {self.name!r}")
        entries.insert(pos, (key, rowid))

    def delete(self, key: tuple, rowid: int) -> None:
        if None in key:
            try:
                self._null_rows.remove(rowid)
            except ValueError:
                pass
            return
        pos = bisect.bisect_left(self._entries, (key, rowid))
        if pos < len(self._entries) and self._entries[pos] == (key, rowid):
            self._entries.pop(pos)

    def lookup(self, key: tuple) -> list:
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

    def prefix(self, key: tuple) -> list:
        """Row ids whose key starts with ``key``, in index order."""
        if None in key:
            return []
        entries = self._entries
        lo = bisect.bisect_left(entries, (key, -1))
        out = []
        klen = len(key)
        n = len(entries)
        while lo < n and entries[lo][0][:klen] == key:
            out.append(entries[lo][1])
            lo += 1
        return out

    def range(self, low: Optional[tuple], high: Optional[tuple],
              low_inclusive: bool = True, high_inclusive: bool = True) -> Iterator[int]:
        """Yield row ids with low <= key <= high (bounds optional)."""
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

    def scan(self, descending: bool = False) -> Iterator[int]:
        """Ordered iteration over all non-null keys."""
        if descending:
            for pos in range(len(self._entries) - 1, -1, -1):
                yield self._entries[pos][1]
        else:
            for __, rowid in self._entries:
                yield rowid

    def null_rows(self) -> list:
        return list(self._null_rows)

    def __len__(self) -> int:
        return len(self._entries) + len(self._null_rows)


def make_index(kind: str, name: str, columns: Iterable[str], unique: bool):
    columns = tuple(columns)
    if kind == "hash":
        return HashIndex(name, columns, unique)
    return SortedIndex(name, columns, unique)
