"""The query cost model: CPU-seconds charged to the database server.

Every executed statement is priced from its :class:`ExecStats` row
accounting.  Two scaling rules make a reduced dataset produce full-scale
demands:

* rows reached by a **full scan** are multiplied by the table's scale
  factor (nominal rows / loaded rows) -- a scan of the 10,000-item TPC-W
  table costs the same whether 100 or 10,000 rows are loaded;
* rows reached through an **index** are priced as counted, because the
  data generators keep per-entity relation sizes (bids per item, orders
  per customer, ...) constant across scales.

The constants were calibrated so that the six configurations land near
the paper's absolute peak throughputs (see EXPERIMENTS.md); their values
are deliberately centralized here so ablation benches can perturb them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional


@dataclass(frozen=True)
class CostConstants:
    """Per-operation CPU prices on the database server, in seconds."""

    per_query_base: float = 0.15e-3    # parse/dispatch/connection handling
    per_row_scanned: float = 4.0e-6    # sequential examine + predicate
    per_row_indexed: float = 30.0e-6   # index traversal + row fetch
    per_row_sorted: float = 8.0e-6     # sort work per (scaled) row
    per_row_returned: float = 10.0e-6  # result marshalling per row
    per_byte_returned: float = 8.0e-9  # result marshalling per byte
    per_row_written: float = 120.0e-6  # heap + index maintenance
    per_lock_statement: float = 0.18e-3  # explicit LOCK/UNLOCK TABLES round


@dataclass(frozen=True)
class TableScale:
    """Scaling context for one table: declared vs loaded cardinalities."""

    nominal: int
    loaded: int
    distinct: dict

    def scan_factor(self) -> float:
        if self.nominal and self.loaded:
            return max(1.0, self.nominal / self.loaded)
        return 1.0

    def probe_factor(self, column) -> float:
        """How much bigger a full-scale index probe on ``column`` is.

        For columns with a declared full-scale distinct count D, a probe
        matches nominal/D rows at full scale but loaded/min(D, loaded)
        rows as loaded.  Undeclared columns have scale-invariant per-key
        cardinality (factor 1).
        """
        distinct_full = self.distinct.get(column) if column else None
        if not distinct_full or not self.nominal or not self.loaded:
            return 1.0
        full_card = self.nominal / distinct_full
        loaded_card = self.loaded / min(distinct_full, self.loaded)
        return max(1.0, full_card / loaded_card)


class QueryCost(NamedTuple):
    """Priced cost of one statement."""

    cpu_seconds: float
    scaled_rows_examined: float
    result_bytes: int

    def __add__(self, other: "QueryCost") -> "QueryCost":
        return QueryCost(
            self.cpu_seconds + other.cpu_seconds,
            self.scaled_rows_examined + other.scaled_rows_examined,
            self.result_bytes + other.result_bytes)


ZERO_COST = QueryCost(0.0, 0.0, 0)


class CostModel:
    """Prices ExecStats into CPU-seconds using per-table scale factors."""

    def __init__(self, constants: CostConstants | None = None):
        self.constants = constants or CostConstants()

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy with some constants replaced (for ablation benches)."""
        return CostModel(replace(self.constants, **kwargs))

    def price(self, stats,
              scale_of: Callable[[str], Optional[TableScale]],
              result_bytes: int = 0, lock_statements: int = 0) -> QueryCost:
        """Price one statement.

        ``scale_of(table_name)`` returns the table's scaling context (or
        None for an unknown table); it is asked only about the tables
        ``stats`` examined rows of.
        """
        k = self.constants
        scanned = indexed = 0.0
        # A sort grows with whatever fed it: the largest factor below.
        sort_scale = 1.0
        for table, count in stats.rows_examined_scan.items():
            ctx = scale_of(table)
            factor = ctx.scan_factor() if ctx else 1.0
            scanned += count * factor
            if factor > sort_scale:
                sort_scale = factor
        for (table, column), count in stats.rows_examined_index.items():
            ctx = scale_of(table)
            factor = ctx.probe_factor(column) if ctx else 1.0
            indexed += count * factor
            if factor > sort_scale:
                sort_scale = factor
        cpu = (k.per_query_base
               + scanned * k.per_row_scanned
               + indexed * k.per_row_indexed
               + stats.sort_rows * sort_scale * k.per_row_sorted
               + stats.rows_returned * k.per_row_returned
               + result_bytes * k.per_byte_returned
               + stats.rows_changed * k.per_row_written
               + lock_statements * k.per_lock_statement)
        return QueryCost(cpu, scanned + indexed, result_bytes)
