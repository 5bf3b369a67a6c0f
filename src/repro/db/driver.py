"""Client-side database drivers.

Two driver personalities mirror the paper's stacks:

* :class:`NativeDriver` -- the PHP module's C-level MySQL driver: low
  per-call overhead, charged to the *web server* CPU (PHP runs in the
  Apache process).
* :class:`JdbcLikeDriver` -- the interpreted type-4 JDBC driver used by
  the servlet and EJB containers: noticeably higher per-call and
  per-byte overhead, charged to the *container* CPU.

The overhead constants do not affect functional results; they are read
by the profiling pass to build service demands.  A
:class:`RecordingConnection` wraps any connection and captures a
:class:`QueryRecord` per statement -- the raw material for interaction
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.db.engine import Database, ResultSet, Session


@dataclass(frozen=True)
class DriverOverheads:
    """Client-side CPU cost per call, charged to the caller's machine."""

    per_call: float            # marshalling + protocol handling
    per_result_byte: float     # result decoding
    wire_overhead_bytes: int   # protocol framing per round trip


NATIVE_OVERHEADS = DriverOverheads(
    per_call=0.05e-3, per_result_byte=2.0e-9, wire_overhead_bytes=60)

JDBC_OVERHEADS = DriverOverheads(
    per_call=0.22e-3, per_result_byte=14.0e-9, wire_overhead_bytes=110)

# The EJB container reuses pooled prepared statements, so its per-call
# driver overhead is lower than a servlet's ad hoc statement handling.
EJB_JDBC_OVERHEADS = DriverOverheads(
    per_call=0.10e-3, per_result_byte=14.0e-9, wire_overhead_bytes=110)


@dataclass(slots=True)
class QueryRecord:
    """One recorded statement execution (profiling capture)."""

    sql: str
    kind: str
    cpu_seconds: float           # priced server-side cost
    result_bytes: int
    rows_returned: int
    rows_changed: int
    tables_read: tuple
    tables_written: tuple
    lock_set: tuple = ()         # (table, mode) pairs for LOCK TABLES
    origin: str = ""             # code site that issued it (see trace.py)
    access: str = ""             # access-path summary, e.g. "items:index(5)"


class Connection:
    """A session-scoped handle to a :class:`Database`."""

    def __init__(self, database: Database, overheads: DriverOverheads):
        self.database = database
        self.overheads = overheads
        self.session: Session = database.open_session()
        self.closed = False

    def execute(self, sql: str, params: Sequence = ()) -> ResultSet:
        if self.closed:
            raise RuntimeError("connection is closed")
        return self.database.execute(sql, params, self.session)

    @property
    def last_insert_id(self) -> Optional[int]:
        return self.session.last_insert_id

    def close(self) -> None:
        self.session.locks.clear()
        self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NativeDriver:
    """PHP-style native driver: cheap calls, ad hoc interface."""

    name = "native"
    overheads = NATIVE_OVERHEADS

    def __init__(self, database: Database):
        self.database = database

    def connect(self) -> Connection:
        return Connection(self.database, self.overheads)


class JdbcLikeDriver:
    """JDBC-style driver: portable interface, interpreted marshalling."""

    name = "jdbc"
    overheads = JDBC_OVERHEADS

    def __init__(self, database: Database):
        self.database = database

    def connect(self) -> Connection:
        return Connection(self.database, self.overheads)


class ConnectionPool:
    """A fixed-size pool of reusable connections (functional layer).

    The EJB container and servlet engine both pool connections in the
    paper's stacks; functionally a pool just bounds and reuses sessions.
    """

    def __init__(self, driver, size: int = 8):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.driver = driver
        self.size = size
        self._idle: List[Connection] = []
        self._outstanding = 0

    def acquire(self) -> Connection:
        if self._idle:
            self._outstanding += 1
            return self._idle.pop()
        if self._outstanding >= self.size:
            raise RuntimeError("connection pool exhausted")
        self._outstanding += 1
        return self.driver.connect()

    def release(self, conn: Connection) -> None:
        if conn.closed:
            self._outstanding -= 1
            return
        conn.session.locks.clear()
        self._idle.append(conn)
        self._outstanding -= 1


#: Statement kinds safe to serve from a read replica.
_READ_KINDS = frozenset({"select", "explain"})


class ReadWriteSplitConnection:
    """Routes statements over one primary and N replica connections.

    The functional counterpart of the cluster's replicated database
    (:mod:`repro.cluster.replication`): plain SELECTs rotate across the
    replica connections; every write, DDL statement, and ``LOCK
    TABLES`` span executes on the primary.  Read-your-writes is
    conservative -- after the first write the session's reads *stay* on
    the primary until :meth:`sync_replicas` declares the replicas
    caught up (in the simulation the timing layer makes that call; here
    it is explicit so the splitting logic is testable on its own).
    """

    def __init__(self, primary: Connection,
                 replicas: Sequence[Connection]):
        self.primary = primary
        self.replicas = list(replicas)
        self._cursor = 0
        self._dirty = False      # wrote since the last sync_replicas()
        self._locked = False     # inside a LOCK TABLES span
        self.reads_split = 0     # statements served by a replica

    def execute(self, sql: str, params: Sequence = ()) -> ResultSet:
        conn = self._pick(sql)
        result = conn.execute(sql, params)
        if conn is self.primary:
            if result.kind == "lock":
                self._locked = True
            elif result.kind == "unlock":
                self._locked = False
            elif result.kind not in _READ_KINDS:
                self._dirty = True
        else:
            self.reads_split += 1
        return result

    def _pick(self, sql: str) -> Connection:
        if not self.replicas or self._dirty or self._locked:
            return self.primary
        head = sql.lstrip().split(None, 1)
        keyword = head[0].upper() if head else ""
        if keyword in ("SELECT", "EXPLAIN"):
            conn = self.replicas[self._cursor % len(self.replicas)]
            self._cursor += 1
            return conn
        return self.primary

    def sync_replicas(self) -> None:
        """Replicas have applied every shipped write: reads may leave
        the primary again."""
        self._dirty = False

    @property
    def last_insert_id(self) -> Optional[int]:
        return self.primary.last_insert_id

    @property
    def overheads(self) -> DriverOverheads:
        return self.primary.overheads

    def close(self) -> None:
        self.primary.close()
        for conn in self.replicas:
            conn.close()


class RecordingConnection:
    """Wraps a connection, capturing a QueryRecord per statement:
    every ``execute`` that returns has left exactly one record in
    ``last`` (the middleware files that one on its trace; none is kept
    here, a deployment's connections live as long as it does)."""

    def __init__(self, inner: Connection):
        self.inner = inner
        self.last: Optional[QueryRecord] = None

    def execute(self, sql: str, params: Sequence = ()) -> ResultSet:
        result = self.inner.execute(sql, params)
        kind, cost, stats = result.kind, result.cost, result.stats
        lock_set = tuple(self.inner.session.locks.items()) \
            if kind == "lock" else ()
        # Positional, in QueryRecord's field order.
        self.last = QueryRecord(
            sql, kind, cost.cpu_seconds, cost.result_bytes,
            len(result.rows), stats.rows_changed, stats.tables_read,
            stats.tables_written, lock_set, "", stats.access_summary())
        return result

    @property
    def last_insert_id(self) -> Optional[int]:
        return self.inner.last_insert_id

    @property
    def overheads(self) -> DriverOverheads:
        return self.inner.overheads

    @property
    def database(self) -> Database:
        return self.inner.database

    @property
    def session(self) -> Session:
        return self.inner.session

    def close(self) -> None:
        self.inner.close()
