"""The Database facade: catalog, plan cache, sessions, explicit locks.

The functional engine executes statements immediately (it is
single-threaded); explicit ``LOCK TABLES`` state is tracked per session
and *enforced* the way MySQL enforces it -- while a session holds any
explicit locks, touching an unlocked table (or writing a table locked
only for READ) is an error.  This catches application code whose lock
statements do not cover its queries, which is precisely the bug class
the paper's sync-servlet rewrite had to avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.db.cost import CostModel, QueryCost, TableScale, ZERO_COST
from repro.db.errors import LockError, SqlError
from repro.db.executor import (
    ExecStats,
    run_delete,
    run_insert,
    run_select,
    run_update,
)
from repro.db.planner import Planner
from repro.db.schema import IndexDef, TableSchema
from repro.db.sql import nodes as n
from repro.db.sql.parser import parse
from repro.db.storage import Table


@dataclass(slots=True)
class ResultSet:
    """Outcome of one executed statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[tuple] = field(default_factory=list)
    stats: ExecStats = field(default_factory=ExecStats)
    cost: QueryCost = ZERO_COST
    last_insert_id: Optional[int] = None
    kind: str = "select"

    @property
    def rowcount(self) -> int:
        if self.kind == "select":
            return len(self.rows)
        return self.stats.rows_changed

    def first(self) -> Optional[tuple]:
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]


class Session:
    """Per-connection state: explicit lock set and last insert id.

    ``scope`` names the database instance the session belongs to; a
    sharded deployment (:mod:`repro.shard`) opens one session per shard,
    and lock errors name the scope so a statement routed to the wrong
    shard is immediately attributable.
    """

    __slots__ = ("locks", "last_insert_id", "scope")

    def __init__(self, scope: str = ""):
        self.locks: Dict[str, str] = {}
        self.last_insert_id: Optional[int] = None
        self.scope = scope


@dataclass(slots=True)
class _Prepared:
    """A parsed + planned statement, cached by SQL text."""

    ast: object
    kind: str
    # The Database method for this statement kind, resolved once:
    # ``run(database, prepared, params, session) -> ResultSet``.
    run: Callable
    plan: object = None
    param_count: int = 0


class Database:
    """An in-memory database instance."""

    def __init__(self, name: str = "db", cost_model: Optional[CostModel] = None):
        self.name = name
        self.tables: Dict[str, Table] = {}
        self.cost_model = cost_model or CostModel()
        self._plan_cache: Dict[str, _Prepared] = {}
        self._planner = Planner(self.tables)
        self._scales: Dict[str, TableScale] = {}
        self.queries_executed = 0
        # Cumulative priced server-side CPU over all statements -- a
        # cheap cross-check for trace-derived DB busy time.
        self.priced_cpu_seconds = 0.0
        # Session-less execute() calls use a per-instance scratch
        # session: lock state must never leak between Database
        # instances (a sharded deployment runs many side by side).
        self._ephemeral = Session(scope=name)

    # -- catalog -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SqlError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self.tables[schema.name] = table
        self._plan_cache.clear()
        return table

    def create_index(self, table_name: str, index: IndexDef) -> None:
        """Add an index; cached plans are invalidated so queries that
        could now use it are re-planned on next execution."""
        self.table(table_name).create_index(index)
        self._plan_cache.clear()

    def drop_index(self, table_name: str, index_name: str) -> None:
        """Drop an index; cached plans that chose it are invalidated."""
        self.table(table_name).drop_index(index_name)
        self._plan_cache.clear()

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise SqlError(f"no such table {name!r}")
        del self.tables[name]
        self._scales.pop(name, None)
        self._plan_cache.clear()

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SqlError(f"no such table {name!r}")
        return table

    def load_rows(self, table_name: str, rows: Sequence[dict]) -> int:
        """``Table.insert`` each dictionary (the sharded loader's path)."""
        table = self.table(table_name)
        for row in rows:
            table.insert(row)
        return len(rows)

    def _table_scale(self, name: str) -> Optional[TableScale]:
        """One table's scaling context; the cost model asks for it only
        when a statement examined rows of that table.  Kept until the
        table's row count or declared statistics change."""
        table = self.tables.get(name)
        if table is None:
            return None
        stats = table.schema.stats
        scale = self._scales.get(name)
        if scale is None or scale.loaded != len(table) or \
                scale.nominal != stats.nominal_rows or \
                scale.distinct is not stats.distinct_values:
            scale = self._scales[name] = TableScale(
                nominal=stats.nominal_rows, loaded=len(table),
                distinct=stats.distinct_values)
        return scale

    def open_session(self) -> Session:
        return Session(scope=self.name)

    # -- statement preparation ------------------------------------------------------

    def _prepare(self, sql: str) -> _Prepared:
        """Parse and plan a statement the plan cache does not hold."""
        ast, param_count = parse(sql)
        entry = _STATEMENTS.get(type(ast))
        if entry is None:  # pragma: no cover - parser covers the statement space
            raise SqlError(f"unsupported statement: {sql!r}")
        kind, plan_method, run = entry
        planned = ast
        if kind == "explain":
            planned = ast.inner
            if not isinstance(planned, (n.Select, n.Update, n.Delete)):
                raise SqlError("EXPLAIN supports SELECT/UPDATE/DELETE only")
            plan_method = _STATEMENTS[type(planned)][1]
        elif kind == "insert":
            self.table(ast.table)  # must exist
        plan = plan_method(self._planner, planned) if plan_method else None
        prepared = _Prepared(ast, kind, run, plan, param_count)
        # DDL invalidates the cache, so only cache DML/queries.
        if run is not Database._run_ddl:
            self._plan_cache[sql] = prepared
        return prepared

    # -- lock enforcement ------------------------------------------------------------

    def _scope(self, session: Session) -> str:
        return session.scope or self.name

    def _check_locks(self, session: Session, read: Sequence[str],
                     written: Sequence[str]) -> None:
        if not session.locks:
            return
        for table in read:
            if table not in session.locks:
                raise LockError(
                    f"table {table!r} was not locked with LOCK TABLES "
                    f"on {self._scope(session)!r} "
                    f"(held: {sorted(session.locks)})")
        for table in written:
            if session.locks.get(table) != "WRITE":
                raise LockError(
                    f"table {table!r} was not locked for WRITE "
                    f"on {self._scope(session)!r} "
                    f"(held: {session.locks.get(table) or 'nothing'})")

    def lock_tables(self, session: Session,
                    locks: Sequence[Tuple[str, str]]) -> None:
        """Apply a ``LOCK TABLES`` lock set to ``session``.

        MySQL semantics: previously-held explicit locks are released
        implicitly, every named table must exist, and until
        :meth:`unlock_tables` runs the session may only touch tables in
        this set (writes need ``WRITE`` mode) -- :meth:`_check_locks`
        enforces it.  The driver's sharded twin calls this directly,
        once per participating shard, which is what makes explicit-lock
        state *per shard*: each instance scopes its own session.
        """
        if session.locks:
            # MySQL releases previously-held locks implicitly.
            session.locks.clear()
        for table, mode in locks:
            self.table(table)  # must exist
            session.locks[table] = mode

    def unlock_tables(self, session: Session) -> None:
        """Release every explicit lock ``session`` holds here."""
        session.locks.clear()

    # -- execution --------------------------------------------------------------------

    def execute(self, sql: str, params: Sequence = (),
                session: Optional[Session] = None) -> ResultSet:
        """Parse (cached), plan (cached), and run one statement."""
        prepared = self._plan_cache.get(sql)
        if prepared is None:
            prepared = self._prepare(sql)
        params = tuple(params)
        if len(params) != prepared.param_count:
            raise SqlError(
                f"statement takes {prepared.param_count} parameters, "
                f"got {len(params)}: {sql!r}")
        self.queries_executed += 1
        if session is None:
            session = self._ephemeral
        result = prepared.run(self, prepared, params, session)
        self.priced_cpu_seconds += result.cost.cpu_seconds
        return result

    def _run_select(self, prepared: _Prepared, params: tuple,
                    session: Session) -> ResultSet:
        plan = prepared.plan
        self._check_locks(session, plan.tables_read, ())
        rows, stats = run_select(plan, params)
        cost = self.cost_model.price(stats, self._table_scale,
                                     _estimate_result_bytes(rows))
        return ResultSet(list(plan.output_names), rows, stats, cost,
                         session.last_insert_id, "select")

    def _run_insert(self, prepared: _Prepared, params: tuple,
                    session: Session) -> ResultSet:
        plan = prepared.plan
        table = plan.table
        self._check_locks(session, (), (table.name,))
        rowid = run_insert(plan, params)
        stats = ExecStats(rows_changed=1, tables_written=(table.name,))
        if table.schema.auto_increment:
            pk_pos = table.column_pos(table.schema.primary_key)
            session.last_insert_id = table.get_row(rowid)[pk_pos]
        cost = self.cost_model.price(stats, self._table_scale)
        return ResultSet(stats=stats, cost=cost, kind="insert",
                         last_insert_id=session.last_insert_id)

    def _run_dml(self, prepared: _Prepared, params: tuple,
                 session: Session) -> ResultSet:
        plan = prepared.plan
        self._check_locks(session, plan.tables, plan.tables)
        run = run_update if prepared.kind == "update" else run_delete
        stats = run(plan, params)
        cost = self.cost_model.price(stats, self._table_scale)
        return ResultSet(stats=stats, cost=cost, kind=prepared.kind,
                         last_insert_id=session.last_insert_id)

    def _run_lock(self, prepared: _Prepared, params: tuple,
                  session: Session) -> ResultSet:
        if prepared.kind == "lock":
            self.lock_tables(session, prepared.ast.locks)
        else:
            self.unlock_tables(session)
        cost = self.cost_model.price(
            ExecStats(), self._table_scale, lock_statements=1)
        return ResultSet(kind=prepared.kind, cost=cost)

    def _run_ddl(self, prepared: _Prepared, params: tuple,
                 session: Session) -> ResultSet:
        ast, kind = prepared.ast, prepared.kind
        if kind == "create_table":
            self.create_table(ast.schema)
        elif kind == "create_index":
            self.create_index(ast.table, ast.index)
        elif kind == "drop_table":
            self.drop_table(ast.name)
        else:
            self.drop_index(ast.table, ast.name)
        return ResultSet(kind=kind)

    def _run_txn(self, prepared: _Prepared, params: tuple,
                 session: Session) -> ResultSet:
        # MyISAM: BEGIN/COMMIT/ROLLBACK are accepted no-ops.
        return ResultSet(kind="txn")

    def _run_explain(self, prepared: _Prepared, params: tuple,
                     session: Session) -> ResultSet:
        """Describe the chosen access plan, one row per table access."""
        plan = prepared.plan
        paths = plan.paths if hasattr(plan, "paths") else [plan.path]
        rows = []
        for path in paths:
            index_name = path.index.name if path.index is not None else None
            extra = []
            if getattr(path, "ordered", False) or path.kind == "index_order":
                extra.append("ordered")
            if path.filter_fn is not None:
                extra.append("filter")
            rows.append((path.alias, path.table.name, path.kind,
                         index_name, ", ".join(extra)))
        if getattr(plan, "has_aggregates", False):
            rows.append(("", "", "aggregate", None, ""))
        if getattr(plan, "needs_sort", False):
            rows.append(("", "", "sort", None, ""))
        return ResultSet(
            columns=["alias", "table", "access", "index", "notes"],
            rows=rows, kind="explain")


# statement class -> (kind, the Planner method that plans it, the
# Database method that runs it)
_STATEMENTS = {
    n.Select: ("select", Planner.plan_select, Database._run_select),
    n.Update: ("update", Planner.plan_update, Database._run_dml),
    n.Delete: ("delete", Planner.plan_delete, Database._run_dml),
    n.Insert: ("insert", Planner.plan_insert, Database._run_insert),
    n.LockTables: ("lock", None, Database._run_lock),
    n.UnlockTables: ("unlock", None, Database._run_lock),
    n.CreateTable: ("create_table", None, Database._run_ddl),
    n.CreateIndex: ("create_index", None, Database._run_ddl),
    n.DropTable: ("drop_table", None, Database._run_ddl),
    n.DropIndex: ("drop_index", None, Database._run_ddl),
    n.Transaction: ("txn", None, Database._run_txn),
    n.Explain: ("explain", None, Database._run_explain),
}


def _estimate_result_bytes(rows: List[tuple]) -> int:
    """Approximate wire size of a result set."""
    total = 0
    for row in rows:
        for value in row:
            if value is None:
                total += 4
            elif isinstance(value, str):
                total += len(value)
            else:
                total += 8
    return total
