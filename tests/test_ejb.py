"""Tests for the EJB container: CMP entities, session façades, RMI stubs."""

import gc
import tracemalloc
import weakref

import pytest

from repro.apps import APP_NAMES, ARCHITECTURES, build_app
from repro.db import Column, ColumnType, Database, IndexDef, TableSchema
from repro.middleware.ejb import EjbContainer, SessionBean
from repro.middleware.trace import InteractionTrace


def make_db():
    db = Database()
    db.create_table(TableSchema(
        name="accounts",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("owner", ColumnType.VARCHAR),
                 Column("balance", ColumnType.FLOAT),
                 Column("region", ColumnType.INT)],
        primary_key="id", auto_increment=True,
        indexes=[IndexDef("idx_region", ("region",))]))
    for i in range(1, 6):
        db.execute("INSERT INTO accounts (owner, balance, region) "
                   "VALUES (?, ?, ?)", (f"user{i}", 100.0 * i, i % 2))
    return db


@pytest.fixture
def container():
    db = make_db()
    ejb = EjbContainer(db)
    ejb.deploy_entity("accounts")
    return ejb


def test_find_by_primary_key_and_lazy_load(container):
    """Default (row) mode: the first field access loads the whole row."""
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(3)
        assert container.entity_loads == 0    # not loaded yet
        assert bean.owner == "user3"          # first access triggers ejbLoad
        assert container.entity_loads == 1
        assert bean.balance == 300.0
        assert container.entity_loads == 1    # whole row came in one query


def test_field_load_mode_issues_query_per_field():
    """JOnAS-style per-field lazy loading (ablation mode)."""
    db = make_db()
    ejb = EjbContainer(db, load_mode="field")
    ejb.deploy_entity("accounts")
    trace = InteractionTrace()
    with ejb.transaction(trace=trace):
        bean = ejb.home("accounts").find_by_primary_key(3)
        assert bean.owner == "user3"
        assert ejb.entity_loads == 1
        assert bean.balance == 300.0
        assert ejb.entity_loads == 2          # one query per field
    sqls = [q.sql for q in trace.queries()]
    assert any(s.startswith("SELECT owner FROM accounts") for s in sqls)
    assert any(s.startswith("SELECT balance FROM accounts") for s in sqls)


def test_find_by_primary_key_missing(container):
    with container.transaction():
        with pytest.raises(KeyError):
            container.home("accounts").find_by_primary_key(999)


def test_finder_generates_pk_only_select_then_n_plus_one(container):
    trace = InteractionTrace()
    with container.transaction(trace=trace):
        beans = container.home("accounts").find_by("region", 1)
        assert len(beans) == 3
        owners = sorted(b.owner for b in beans)
        assert owners == ["user1", "user3", "user5"]
    sqls = [q.sql for q in trace.queries()]
    # 1 finder + 3 individual ejbLoads: the N+1 pattern.
    assert sqls[0].startswith("SELECT id FROM accounts WHERE region")
    assert sum("SELECT * FROM accounts" in s for s in sqls) == 3


def test_field_store_mode_issues_update_per_field(container):
    trace = InteractionTrace()
    with container.transaction(trace=trace):
        bean = container.home("accounts").find_by_primary_key(1)
        bean.balance = 500.0
        bean.owner = "renamed"
    updates = [q for q in trace.queries() if q.kind == "update"]
    assert len(updates) == 2     # one short UPDATE per dirty field
    db = container.database
    assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() \
        == 500.0
    assert db.execute("SELECT owner FROM accounts WHERE id = 1").scalar() \
        == "renamed"


def test_row_store_mode_issues_single_update():
    db = make_db()
    ejb = EjbContainer(db, store_mode="row")
    ejb.deploy_entity("accounts")
    trace = InteractionTrace()
    with ejb.transaction(trace=trace):
        bean = ejb.home("accounts").find_by_primary_key(1)
        bean.balance = 500.0
        bean.owner = "renamed"
    updates = [q for q in trace.queries() if q.kind == "update"]
    assert len(updates) == 1
    assert db.execute("SELECT owner FROM accounts WHERE id = 1").scalar() \
        == "renamed"


def test_stores_flush_only_at_commit(container):
    db = container.database
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(1)
        bean.balance = 999.0
        # Not yet visible: ejbStore runs at commit.
        assert db.execute(
            "SELECT balance FROM accounts WHERE id = 1").scalar() == 100.0
    assert db.execute(
        "SELECT balance FROM accounts WHERE id = 1").scalar() == 999.0


def test_create_inserts_immediately(container):
    with container.transaction():
        bean = container.home("accounts").create(
            owner="fresh", balance=1.0, region=0)
        assert bean.primary_key == 6
        assert bean.owner == "fresh"
    assert container.database.execute(
        "SELECT COUNT(*) FROM accounts").scalar() == 6


def test_remove_deletes_row(container):
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(2)
        bean.remove()
        with pytest.raises(RuntimeError):
            __ = bean.owner
    assert container.database.execute(
        "SELECT COUNT(*) FROM accounts").scalar() == 4


@pytest.mark.parametrize("loaded", [False, True])
def test_snapshot_refuses_a_removed_bean(container, loaded):
    """Like a field access, a snapshot of a removed bean raises, and it
    neither queries the deleted row nor returns its stale values."""
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(2)
        if loaded:
            assert bean.snapshot()["owner"] == "user2"
        bean.remove()
        issued = container.queries_issued
        with pytest.raises(RuntimeError, match="removed entity bean"):
            bean.snapshot()
        assert container.queries_issued == issued


def test_identity_map_within_transaction(container):
    with container.transaction():
        home = container.home("accounts")
        a = home.find_by_primary_key(1)
        b = home.find_by_primary_key(1)
        assert a is b


def test_instances_do_not_survive_transactions(container):
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(1)
        assert bean.owner == "user1"
    loads_before = container.entity_loads
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(1)
        assert bean.owner == "user1"
    assert container.entity_loads == loads_before + 1  # re-loaded


def test_entity_access_outside_transaction_rejected(container):
    with pytest.raises(RuntimeError):
        container.home("accounts").find_by_primary_key(1)


def test_pk_is_immutable(container):
    from repro.db.errors import SqlError
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(1)
        with pytest.raises(SqlError):
            bean.id = 99


def test_unknown_field_rejected(container):
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(1)
        with pytest.raises(AttributeError):
            __ = bean.ghost
        with pytest.raises(AttributeError):
            bean.ghost = 1


def test_session_facade_via_rmi_stub(container):
    class AccountFacade(SessionBean):
        def transfer(self, src, dst, amount):
            home = self.home("accounts")
            a = home.find_by_primary_key(src)
            b = home.find_by_primary_key(dst)
            a.balance = a.balance - amount
            b.balance = b.balance + amount
            return {"src": a.balance, "dst": b.balance}

    container.deploy_session("AccountFacade", AccountFacade)
    trace = InteractionTrace()
    stub = container.lookup("AccountFacade", trace=trace)
    result = stub.transfer(1, 2, 25.0)
    assert result == {"src": 75.0, "dst": 225.0}
    assert len(trace.rmi_calls()) == 1
    method, req_bytes, reply_bytes = trace.rmi_calls()[0]
    assert method == "transfer"
    assert req_bytes > 300 and reply_bytes > 300
    # Queries from inside the transaction landed on the same trace.
    assert trace.query_count() >= 4
    db = container.database
    assert db.execute("SELECT balance FROM accounts WHERE id = 1").scalar() \
        == 75.0


def test_nested_transactions_join(container):
    class Facade(SessionBean):
        def outer(self):
            with self.ejb.transaction():
                bean = self.home("accounts").find_by_primary_key(1)
                bean.balance = 1.0
            return "ok"

    container.deploy_session("F", Facade)
    stub = container.lookup("F")
    assert stub.outer() == "ok"
    assert container.database.execute(
        "SELECT balance FROM accounts WHERE id = 1").scalar() == 1.0


def test_deploy_all_entities():
    db = make_db()
    ejb = EjbContainer(db)
    ejb.deploy_all_entities()
    assert ejb.home("accounts") is not None


def test_unknown_session_bean(container):
    with pytest.raises(KeyError):
        container.lookup("Ghost")


def test_duplicate_deploys_rejected(container):
    with pytest.raises(ValueError):
        container.deploy_entity("accounts")
    container.deploy_session("X", lambda c: SessionBean(c))
    with pytest.raises(ValueError):
        container.deploy_session("X", lambda c: SessionBean(c))


def test_bad_store_mode_rejected():
    with pytest.raises(ValueError):
        EjbContainer(make_db(), store_mode="eager")
    with pytest.raises(ValueError):
        EjbContainer(make_db(), load_mode="eager")


def test_find_where_and_find_all(container):
    with container.transaction():
        home = container.home("accounts")
        rich = home.find_where("balance >= ?", (300.0,),
                               order_by="balance", descending=True)
        assert [b.primary_key for b in rich] == [5, 4, 3]
        all_beans = home.find_all(limit=2)
        assert len(all_beans) == 2


def test_field_access_counter(container):
    with container.transaction():
        bean = container.home("accounts").find_by_primary_key(1)
        __ = bean.owner
        __ = bean.balance
        bean.balance = 1.0
    assert container.field_accesses == 3


def test_stateless_lookup_gives_fresh_instance_per_lookup(container):
    class Sticky(SessionBean):
        def poke(self):
            self.touched = getattr(self, "touched", 0) + 1
            return self.touched

    container.deploy_session("Sticky", Sticky)
    assert container.lookup("Sticky").poke() == 1
    assert container.lookup("Sticky").poke() == 1  # new instance each time


# -- build-once CMP SQL and unchanged container accounting ------------------------

def test_home_hands_out_the_same_sql_object_per_statement_shape():
    """Each CMP statement text is built once per home, so the driver's
    plan cache is probed with an identical (already hashed) string."""
    ejb = EjbContainer(make_db(), load_mode="field")
    home = ejb.deploy_entity("accounts")
    issued = []
    real_execute = ejb.execute

    def recording_execute(sql, params=()):
        issued.append(sql)
        return real_execute(sql, params)
    ejb.execute = recording_execute

    def texts(action):
        del issued[:]
        with ejb.transaction():
            action()
        return list(issued)

    def load_two_beans():
        for pk in (2, 3):
            bean = ejb.materialize(home, pk)
            assert bean.owner == f"user{pk}"
            bean.balance = bean.balance + 1.0

    first, second, load1, load2, store1, store2 = texts(load_two_beans)
    assert first == "SELECT owner FROM accounts WHERE id = ?"
    assert first is load1
    assert second == "SELECT balance FROM accounts WHERE id = ?"
    assert second is load2
    assert store1 == "UPDATE accounts SET balance = ? WHERE id = ?"
    assert store1 is store2

    (once,) = texts(lambda: home.find_by_primary_key(4))
    (again,) = texts(lambda: home.find_by_primary_key(5))
    assert once == "SELECT id FROM accounts WHERE id = ?"
    assert once is again

    # Finder texts are generated per call; their shapes are unchanged.
    assert texts(lambda: home.find_by("region", 0, order_by="balance",
                                      descending=True, limit=2)) == [
        "SELECT id FROM accounts WHERE region = ? "
        "ORDER BY balance DESC LIMIT 2"]
    assert texts(lambda: home.find_where("balance > ?", (150.0,))) == [
        "SELECT id FROM accounts WHERE balance > ?"]
    assert texts(lambda: home.find_all(limit=3)) == [
        "SELECT id FROM accounts LIMIT 3"]


# entity_loads / entity_stores / field_accesses / queries_issued /
# transactions, then the ejb_work payloads of every interaction in
# order, as measured at commit d05c199 (before the container's counters
# were inlined into the bean accessors).
_PARENT_ACCOUNTING = {
    "bookstore": ((18481, 6, 26581, 21228, 13), [
        [(12, 0, 12)], [(28, 0, 28)], [(18198, 0, 25974)], [(15, 0, 15)],
        [], [(0, 0, 0)], [(2, 0, 8)], [(0, 0, 2)], [(12, 1, 15)],
        [(7, 3, 17)], [(0, 1, 1)], [(3, 0, 3)], [(6, 0, 6)],
        [(198, 1, 500)]]),
    "auction": ((493, 8, 514, 560, 19), [
        [], [], [(2, 1, 4)], [], [(80, 0, 80)], [(5, 0, 6)], [(124, 0, 124)],
        [(1, 0, 1), (80, 0, 80)], [(0, 0, 0)], [(11, 0, 11)], [(9, 0, 9)],
        [(50, 0, 50)], [], [(4, 0, 4)], [(5, 2, 10)], [], [(4, 0, 4)],
        [(5, 2, 9)], [], [(3, 0, 3)], [(4, 2, 7)], [], [(80, 0, 80)], [],
        [(3, 1, 5)], [(23, 0, 27)]]),
}


@pytest.mark.parametrize("app_name", sorted(_PARENT_ACCOUNTING))
def test_container_accounting_unchanged_on_tiny_apps(app_name):
    import random

    from repro.apps import build_app
    from tests.test_golden_db_exec import _fresh_registration_tags

    with _fresh_registration_tags():
        app = build_app(app_name, tiny=True)
        presentation, container = app.deploy("ejb")
        rng = random.Random(f"1203/{app_name}/ejb-counters")
        state = app.make_state(rng)
        work = []
        for name in app.interaction_names():
            __, trace = presentation.handle(app.make_request(name, rng, state))
            work.append([step.payload for step in trace.steps
                         if step.kind == "ejb_work"])
    counters, parent_work = _PARENT_ACCOUNTING[app_name]
    assert (container.entity_loads, container.entity_stores,
            container.field_accesses, container.queries_issued,
            container.transactions) == counters
    assert work == parent_work


# -- what a bean and a field load keep -----------------------------------------------

# tracemalloc bytes per bean that ``find_all`` materialises, as measured
# on CPython 3.11 before beans had slots and a shared clean dirty set
# (each bean then carried an instance dict and an empty set of its own).
_PARENT_BYTES_PER_BEAN = 638


def test_bean_and_access_stamp_footprint():
    db = Database()
    db.create_table(TableSchema(
        name="accounts",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("owner", ColumnType.VARCHAR)],
        primary_key="id", auto_increment=True))
    db.load_rows("accounts", [{"owner": f"user{i}"} for i in range(400)])
    ejb = EjbContainer(db, load_mode="field")
    home = ejb.deploy_entity("accounts")
    trace = InteractionTrace()
    with ejb.transaction(trace=trace):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            beans = home.find_all()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(beans) == 400
        assert grown / len(beans) <= _PARENT_BYTES_PER_BEAN / 2
        assert not hasattr(beans[0], "__dict__")
        # A clean bean holds no set of its own; a write gives it one.
        assert not isinstance(beans[0]._dirty, set)
        assert beans[0]._dirty is beans[1]._dirty
        beans[0].owner = "renamed"
        assert beans[0]._dirty == {"owner"}
        assert beans[1]._dirty is beans[2]._dirty
        # Two loads through the same probe plan share one access stamp.
        assert beans[1].owner == "user1" and beans[2].owner == "user2"
    scan, first, second, store = trace.queries()
    assert first.sql is second.sql
    assert first.access == "accounts:index(1)"
    assert first.access is second.access


@pytest.mark.parametrize("arch", ARCHITECTURES)
@pytest.mark.parametrize("app_name", APP_NAMES)
def test_every_deployment_is_freed_by_reference_counting(app_name, arch):
    """A dropped deployment frees its database at once, not at the next
    cyclic collection: no deployment is a reference cycle."""
    app, deployment = build_app(app_name, arch, tiny=True, scale=0.0005)
    gc.collect()
    gc.disable()
    try:
        database = weakref.ref(app.database)
        del app, deployment
        assert database() is None
    finally:
        gc.enable()
