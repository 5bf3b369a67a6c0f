"""The EJB container: homes, transactions, pooling, query generation.

The container owns a JDBC connection pool, an identity map of entity
instances per transaction, and the commit protocol: at commit every
dirty bean is stored (ejbStore) and the identity map is cleared
(commit-option C, instances do not survive transactions -- JOnAS's
default for this kind of deployment and the behaviour that forces
re-loads on every request).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.db.driver import ConnectionPool, JdbcLikeDriver, RecordingConnection
from repro.db.engine import Database, ResultSet
from repro.middleware.ejb.entity import EntityBean, EntityHome
from repro.middleware.ejb.session import RmiCosts, RmiStub, SessionBean
from repro.middleware.trace import InteractionTrace, TraceStep


@dataclass(frozen=True)
class EjbCosts:
    """Container CPU prices (the EJB server machine's budget)."""

    per_method: float = 4.5e-3        # dispatch, tx begin/commit, security
    per_entity_load: float = 0.12e-3  # activation + state population
    per_entity_store: float = 0.08e-3
    per_field_access: float = 6.0e-6  # accessor indirection
    per_query_call: float = 0.10e-3   # pooled prepared-statement JDBC call
    per_output_byte: float = 40.0e-9
    # Fast busy rejection when the container backlog (repro.overload
    # backpressure) is full.
    per_busy_reject: float = 0.08e-3


class EjbContainer:
    """One deployed EJB server instance over one database."""

    name = "ejb"
    requires_colocation = False
    costs = EjbCosts()
    rmi_costs = RmiCosts()

    def __init__(self, database: Database, store_mode: str = "field",
                 load_mode: str = "row", pool_size: int = 32):
        if store_mode not in ("field", "row"):
            raise ValueError(f"unknown CMP store mode {store_mode!r}")
        if load_mode not in ("field", "row"):
            raise ValueError(f"unknown CMP load mode {load_mode!r}")
        self.database = database
        self.store_mode = store_mode
        self.load_mode = load_mode
        self.driver = JdbcLikeDriver(database)
        self.pool = ConnectionPool(self.driver, size=pool_size)
        self._homes: Dict[str, EntityHome] = {}
        self._session_beans: Dict[str, Callable] = {}
        # Transaction state:
        self._tx_depth = 0
        self._identity: Dict[Tuple[str, object], EntityBean] = {}
        self._dirty: list = []
        self._conn: Optional[RecordingConnection] = None
        self._trace: Optional[InteractionTrace] = None
        # Counters (exposed for tests and metrics):
        self.entity_loads = 0
        self.entity_stores = 0
        self.field_accesses = 0
        self.queries_issued = 0
        self.transactions = 0

    # -- deployment -----------------------------------------------------------------

    def deploy_entity(self, table_name: str) -> EntityHome:
        """Deploy a CMP entity bean over an existing table."""
        if table_name in self._homes:
            raise ValueError(f"entity for {table_name!r} already deployed")
        home = EntityHome(self, table_name)
        self._homes[table_name] = home
        return home

    def deploy_all_entities(self) -> None:
        for table_name in self.database.tables:
            if table_name not in self._homes:
                self.deploy_entity(table_name)

    def home(self, table_name: str) -> EntityHome:
        home = self._homes.get(table_name)
        if home is None:
            raise KeyError(f"no entity deployed for table {table_name!r}")
        return home

    def deploy_session(self, name: str, factory: Callable[["EjbContainer"],
                                                          SessionBean]) -> None:
        if name in self._session_beans:
            raise ValueError(f"session bean {name!r} already deployed")
        self._session_beans[name] = factory

    def lookup(self, name: str,
               trace: Optional[InteractionTrace] = None) -> RmiStub:
        """JNDI-ish lookup: returns an RMI stub for a stateless bean."""
        factory = self._session_beans.get(name)
        if factory is None:
            raise KeyError(f"no session bean bound to {name!r}")
        bean = factory(self)
        return RmiStub(bean, self, self.rmi_costs, trace_sink=trace)

    def create_stateful(self, name: str,
                        trace: Optional[InteractionTrace] = None) -> RmiStub:
        """Create a *stateful* session bean instance and its stub.

        Unlike :meth:`lookup`, the returned stub is bound to one live
        instance whose attributes persist across remote calls -- the
        "temporary object" flavour the paper describes.  Call
        :meth:`release_stateful` when the conversation ends.
        """
        stub = self.lookup(name, trace=trace)
        bean = stub._bean
        activate = getattr(bean, "ejb_activate", None)
        if activate is not None:
            activate()
        return stub

    def release_stateful(self, stub: RmiStub) -> None:
        """End a stateful conversation (ejbPassivate + discard)."""
        passivate = getattr(stub._bean, "ejb_passivate", None)
        if passivate is not None:
            passivate()

    # -- transactions ------------------------------------------------------------------

    @contextmanager
    def transaction(self, trace: Optional[InteractionTrace] = None):
        """REQUIRED semantics: join the active transaction or start one."""
        if self._tx_depth > 0:
            self._tx_depth += 1
            try:
                yield
            finally:
                self._tx_depth -= 1
            return
        self._tx_depth = 1
        if trace is not None:
            self._trace = trace
        conn = self.pool.acquire()
        self._conn = RecordingConnection(conn)
        self.transactions += 1
        loads0, stores0 = self.entity_loads, self.entity_stores
        fields0 = self.field_accesses
        try:
            yield
            self._commit()
            if self._trace is not None:
                # Container bookkeeping for this transaction: the
                # profiling pass prices it as EJB-server CPU.
                self._trace.steps.append(TraceStep(
                    "ejb_work",
                    (self.entity_loads - loads0,
                     self.entity_stores - stores0,
                     self.field_accesses - fields0),
                    origin=self._trace.origin))
        finally:
            self._tx_depth = 0
            self._identity.clear()
            self._dirty.clear()
            self.pool.release(conn)
            self._conn = None
            self._trace = None

    def _commit(self) -> None:
        # ejbStore every dirty bean, then drop all instances (option C).
        for bean in self._dirty:
            bean._home._ejb_store(bean)
            self.entity_stores += 1
        self._dirty.clear()

    def attach_trace(self, trace: InteractionTrace) -> None:
        """Route this container's queries to an interaction trace."""
        self._trace = trace

    # -- services used by homes/beans ------------------------------------------------------

    def execute(self, sql: str, params=()) -> ResultSet:
        conn = self._conn
        if conn is None:
            raise RuntimeError(
                "entity access outside a container transaction")
        result = conn.execute(sql, params)
        self.queries_issued += 1
        if self._trace is not None:
            self._trace.add_query(conn.last)
        return result

    def materialize(self, home: EntityHome, pk,
                    values: Optional[dict] = None) -> EntityBean:
        key = (home.table_name, pk)
        bean = self._identity.get(key)
        if bean is None or values is not None:
            bean = EntityBean(home, pk, values=values)
            self._identity[key] = bean
        return bean

    def forget(self, home: EntityHome, pk) -> None:
        self._identity.pop((home.table_name, pk), None)

    def register_dirty(self, bean: EntityBean) -> None:
        if bean not in self._dirty:
            self._dirty.append(bean)
