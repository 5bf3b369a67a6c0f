"""The application context handed to interaction logic.

The paper's PHP scripts and servlets issue *exactly the same queries*;
only the locking differs (the sync servlet variants drop LOCK/UNLOCK
TABLES statements and lock inside the container instead).  Interaction
logic here is therefore written once against :class:`AppContext`, and
the context's :class:`LockingPolicy` decides how an ``exclusive(...)``
span is realised:

* ``DB_LOCKS``      -> emit ``LOCK TABLES ... WRITE/READ`` + ``UNLOCK TABLES``
* ``CONTAINER_SYNC``-> acquire named locks in the container's registry

EJB applications do not use this path for business logic (their SQL is
generated by the CMP layer), but their presentation servlets still
receive an AppContext for request parsing and response assembly.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from typing import Optional, Sequence

from repro.db.driver import Connection, RecordingConnection
from repro.db.engine import ResultSet
from repro.middleware.trace import InteractionTrace
from repro.web.http import HttpRequest, HttpResponse


class LockingPolicy(enum.Enum):
    DB_LOCKS = "db"
    CONTAINER_SYNC = "sync"


class SyncLockRegistry:
    """Named reader/writer locks living inside a container.

    Functionally (single-threaded) this only validates usage and counts
    acquisitions; the simulator recreates the same spans with virtual-time
    RW locks.  Lock names are table names by default (granularity is an
    ablation knob -- see topology configs).
    """

    def __init__(self):
        self._held: dict = {}
        self.acquisitions = 0

    def acquire(self, name: str, mode: str) -> None:
        if mode not in ("READ", "WRITE"):
            raise ValueError(f"bad lock mode {mode!r}")
        if name in self._held:
            raise RuntimeError(f"container lock {name!r} acquired twice")
        self._held[name] = mode
        self.acquisitions += 1

    def release(self, name: str) -> None:
        if name not in self._held:
            raise RuntimeError(f"container lock {name!r} not held")
        del self._held[name]


class AppContext:
    """Everything one interaction needs: request, database, locking."""

    def __init__(self, request: HttpRequest, connection: Connection,
                 policy: LockingPolicy = LockingPolicy.DB_LOCKS,
                 sync_registry: Optional[SyncLockRegistry] = None,
                 trace: Optional[InteractionTrace] = None,
                 http_session=None):
        self.request = request
        self.policy = policy
        self.sync_registry = sync_registry
        # The container's HttpSession for this client (servlet engines
        # only; None for PHP, which has no container session service).
        self.http_session = http_session
        if policy is LockingPolicy.CONTAINER_SYNC and sync_registry is None:
            raise ValueError("CONTAINER_SYNC policy needs a SyncLockRegistry")
        self.trace = trace if trace is not None else InteractionTrace()
        self._conn = RecordingConnection(connection) \
            if not isinstance(connection, RecordingConnection) else connection

    # -- database ---------------------------------------------------------------

    def query(self, sql: str, params: Sequence = ()) -> ResultSet:
        """Run a statement, recording it on the trace."""
        result = self._conn.execute(sql, params)
        self.trace.add_query(self._conn.last)
        return result

    # An alias that reads naturally at update call sites.
    update = query

    @contextmanager
    def span(self, label: str):
        """Label everything recorded inside the block with ``label``.

        Origins flow onto QueryRecords and TraceSteps, and from there
        into the simulator's lock-site attribution -- so application
        code can mark logical phases (e.g. ``ctx.span("checkout")``)
        without changing any behaviour.
        """
        self.trace.push_origin(label)
        try:
            yield
        finally:
            self.trace.pop_origin()

    @property
    def last_insert_id(self) -> Optional[int]:
        return self._conn.last_insert_id

    # -- locking -----------------------------------------------------------------

    @contextmanager
    def exclusive(self, write_tables: Sequence,
                  read_tables: Sequence[str] = ()):
        """A critical section over tables.

        ``write_tables`` entries are either table names or
        ``(table, key)`` pairs.  Under DB_LOCKS the span is a real
        ``LOCK TABLES``/``UNLOCK TABLES`` pair over whole tables --
        MyISAM has nothing finer, and every table used in the span must
        be listed.  Under CONTAINER_SYNC each entry becomes a container
        lock named ``table#key``: Java synchronization can guard the
        *specific entity* being read-modify-written, so two interactions
        writing different customers (or bidding on different items) do
        not serialize, and read-only interactions -- which take no
        container locks at all -- never block.  That granularity gap is
        exactly why the paper's (sync) configurations relieve the
        database lock contention.
        """
        writes = [(entry, None) if isinstance(entry, str) else tuple(entry)
                  for entry in write_tables]
        write_names = {table for table, __ in writes}
        read_tables = [t for t in read_tables if t not in write_names]
        if self.policy is LockingPolicy.DB_LOCKS:
            clauses = [f"{table} WRITE" for table, __ in writes]
            clauses += [f"{t} READ" for t in read_tables]
            self.query("LOCK TABLES " + ", ".join(clauses))
            try:
                yield
            finally:
                self.query("UNLOCK TABLES")
        else:
            locks = tuple(
                (table if key is None else f"{table}#{key}", "WRITE")
                for table, key in writes)
            for name, mode in locks:
                self.sync_registry.acquire(name, mode)
            self.trace.add_sync_acquire(locks)
            try:
                yield
            finally:
                names = tuple(name for name, __ in locks)
                for name in names:
                    self.sync_registry.release(name)
                self.trace.add_sync_release(names)

    # -- request/response sugar ---------------------------------------------------

    def param(self, name: str, default=None):
        return self.request.param(name, default)

    def int_param(self, name: str, default: Optional[int] = None):
        return self.request.int_param(name, default)

    def str_param(self, name: str, default: str = "") -> str:
        return self.request.str_param(name, default)

    def respond(self, page) -> HttpResponse:
        """Build the HttpResponse from a Page and file it on the trace."""
        response = HttpResponse(body=page.render(),
                                embedded_images=list(page.images))
        self.trace.response = response
        return response

    def error(self, message: str, status: int = 400) -> HttpResponse:
        response = HttpResponse(
            body=f"<html><body><h1>Error</h1><p>{message}</p></body></html>",
            status=status)
        self.trace.response = response
        return response
