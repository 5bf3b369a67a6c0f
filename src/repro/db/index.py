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

    def entries(self) -> list:
        """``(key, rowid)`` pairs, bucket by bucket, NULL keys excluded."""
        return [(key, rowid)
                for key, bucket in self._map.items() for rowid in bucket]

    def null_rows(self) -> list:
        return list(self._null_rows)

    def __len__(self) -> int:
        return sum(len(b) for b in self._map.values()) + len(self._null_rows)


class SortedIndex:
    """Order-preserving index: two parallel arrays, ``_keys`` and
    ``_rowids``, ordered by (key, rowid).

    A one-column index stores each key bare, the value rather than a
    1-tuple, so an entry is two list slots; callers pass key tuples
    either way.  Supports equality probes, half-open/closed range scans,
    and ordered iteration in both directions (for ORDER BY ... LIMIT
    plans).
    """

    __slots__ = ("name", "columns", "unique", "_bare", "_keys", "_rowids",
                 "_null_rows")

    def __init__(self, name: str, columns: tuple, unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._bare = len(columns) == 1
        self._keys: list = []
        self._rowids: list = []
        self._null_rows: list = []

    def _span(self, key) -> tuple:
        """``(lo, hi)``: the run of ``_keys`` equal to stored key ``key``."""
        lo = bisect.bisect_left(self._keys, key)
        return lo, bisect.bisect_right(self._keys, key, lo)

    def insert(self, key: tuple, rowid: int) -> None:
        if None in key:
            self._null_rows.append(rowid)
            return
        stored = key[0] if self._bare else key
        lo, hi = self._span(stored)
        if self.unique and lo < hi:
            raise IntegrityError(
                f"duplicate key {key!r} in unique index {self.name!r}")
        pos = bisect.bisect_right(self._rowids, rowid, lo, hi)
        self._keys.insert(pos, stored)
        self._rowids.insert(pos, rowid)

    def delete(self, key: tuple, rowid: int) -> None:
        if None in key:
            try:
                self._null_rows.remove(rowid)
            except ValueError:
                pass
            return
        lo, hi = self._span(key[0] if self._bare else key)
        pos = bisect.bisect_left(self._rowids, rowid, lo, hi)
        if pos < hi and self._rowids[pos] == rowid:
            del self._keys[pos], self._rowids[pos]

    def lookup(self, key: tuple) -> list:
        if None in key:
            return []
        if self._bare:
            key = key[0]
        keys = self._keys
        lo = bisect.bisect_left(keys, key)
        if self.unique:
            if lo < len(keys) and keys[lo] == key:
                return [self._rowids[lo]]
            return []
        return self._rowids[lo:bisect.bisect_right(keys, key, lo)]

    def prefix(self, key: tuple) -> list:
        """Row ids whose key starts with ``key``, in index order."""
        if None in key:
            return []
        if self._bare:
            return self._rowids[slice(*self._span(key[0]))]
        keys = self._keys
        lo = hi = bisect.bisect_left(keys, key)
        klen = len(key)
        while hi < len(keys) and keys[hi][:klen] == key:
            hi += 1
        return self._rowids[lo:hi]

    def range(self, low: Optional[tuple], high: Optional[tuple],
              low_inclusive: bool = True, high_inclusive: bool = True) -> Iterator[int]:
        """Row ids with low <= key <= high (bounds optional)."""
        if (low is not None and None in low) or \
                (high is not None and None in high):
            return iter(())
        keys = self._keys
        if low is None:
            lo = 0
        else:
            low = low[0] if self._bare else low
            lo = (bisect.bisect_left if low_inclusive
                  else bisect.bisect_right)(keys, low)
        if high is None:
            hi = len(keys)
        else:
            high = high[0] if self._bare else high
            hi = (bisect.bisect_right if high_inclusive
                  else bisect.bisect_left)(keys, high, lo)
        return iter(self._rowids[lo:hi])

    def scan(self, descending: bool = False) -> Iterator[int]:
        """Ordered iteration over all non-null keys."""
        return reversed(self._rowids) if descending else iter(self._rowids)

    def entries(self) -> list:
        """``(key tuple, rowid)`` pairs in index order, NULL keys excluded."""
        if self._bare:
            return [((key,), rowid)
                    for key, rowid in zip(self._keys, self._rowids)]
        return list(zip(self._keys, self._rowids))

    def null_rows(self) -> list:
        return list(self._null_rows)

    def __len__(self) -> int:
        return len(self._keys) + len(self._null_rows)


def make_index(kind: str, name: str, columns: Iterable[str], unique: bool):
    columns = tuple(columns)
    if kind == "hash":
        return HashIndex(name, columns, unique)
    return SortedIndex(name, columns, unique)
