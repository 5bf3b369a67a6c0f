"""Tests for the sharding subsystem (repro.shard): routing schemes and
the key-to-shard math, the functional twin (row placement, per-shard
lock scoping, presumed-abort 2PC), simulated DB[N] runs (determinism,
site dispatch, import isolation), and the fault property the ISSUE
mandates: any fault plan over shard members leaves no
prepared-but-undecided transactions, no dangling locks, and a
quiescent kernel."""

from dataclasses import asdict

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.db import Column, ColumnType, TableSchema
from repro.db.schema import TableStats
from repro.db.errors import LockError, SqlError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.experiment import ExperimentSpec, build_site, run_experiment
from repro.harness.profiles import profile_all_flavors
from repro.shard.functional import ShardedDatabase
from repro.shard.routing import (
    SCHEMES,
    ShardScheme,
    scheme_for,
    shard_index,
)
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.topology.spec import TopologySpec, topology
from repro.workload.client import ClientPopulation, RetryPolicy
from repro.workload.markov import choose_interaction


# -- routing: schemes and key math ---------------------------------------------


def test_shipped_schemes_cover_the_paper_applications():
    for app_name in ("bookstore", "auction", "bboard"):
        scheme = SCHEMES[app_name]
        assert scheme.app_name == app_name
        assert scheme.session_groups
        assert scheme.home_group == scheme.session_groups[0]
        for root, tables in scheme.groups.items():
            assert root in tables
            for table in tables:
                assert scheme.group_of(table) == root
        for table in scheme.global_tables:
            assert scheme.group_of(table) is None
    # The bookstore checkout shape: customer group and item group are
    # distinct, so buy_confirm is the cross-shard write transaction.
    books = SCHEMES["bookstore"]
    assert books.groups_of(("orders", "credit_info")) == ("customers",)
    assert set(books.groups_of(("order_line", "items"))) \
        == {"customers", "items"}
    assert books.groups_of(("countries",)) == ()


def test_scheme_rejects_a_table_in_two_groups():
    with pytest.raises(ValueError, match="belongs to both"):
        ShardScheme(app_name="x",
                    groups={"a": ("a", "t"), "b": ("b", "t")})


def test_scheme_for_unknown_app_degenerates_to_one_home_group():
    scheme = scheme_for("nosuchapp")
    assert scheme.groups == {}
    assert scheme.group_of("anything") is None


def test_shard_index_is_deterministic_and_spreads():
    first = [shard_index("items", e, 10_000, 4, "hash")
             for e in range(400)]
    assert first == [shard_index("items", e, 10_000, 4, "hash")
                     for e in range(400)]
    assert set(first) == {0, 1, 2, 3}
    # One shard is the identity; range stripes contiguous key blocks.
    assert shard_index("items", 123, 10_000, 1, "hash") == 0
    stripes = [shard_index("items", e, 100, 4, "range")
               for e in range(100)]
    assert stripes == sorted(stripes)
    assert set(stripes) == {0, 1, 2, 3}
    with pytest.raises(ValueError, match="shard strategy"):
        shard_index("items", 1, 100, 2, "modulo")


def test_hash_and_range_agree_across_group_names():
    # Different groups with the same entity may land on different
    # shards under hash (the group name salts the key) ...
    spread = {shard_index(g, 7, 1000, 8, "hash")
              for g in ("customers", "items", "users", "stories")}
    assert len(spread) > 1
    # ... while range ignores the group: placement is by key block.
    assert shard_index("customers", 7, 1000, 8, "range") \
        == shard_index("items", 7, 1000, 8, "range")


# -- the functional twin -------------------------------------------------------


def _table(name, stats_rows=1_000):
    return TableSchema(
        name=name,
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("customers_id", ColumnType.INT),
                 Column("value", ColumnType.INT)],
        primary_key="id",
        stats=TableStats(nominal_rows=stats_rows))


def _sharded_bookstore_slice(shards=2):
    db = ShardedDatabase("bookstore", shards)
    for name in ("customers", "orders", "items", "countries"):
        db.create_table(_table(name))
    return db


def test_row_placement_follows_the_scheme():
    db = _sharded_bookstore_slice(shards=3)
    customers = [{"id": i, "customers_id": i, "value": 0}
                 for i in range(60)]
    loaded = db.load_rows("customers", customers)
    assert sum(loaded.values()) == 60
    assert set(loaded) == {0, 1, 2}          # every shard owns a slice
    # Group members co-locate with their root's entity.
    orders = [{"id": 1000 + i, "customers_id": i, "value": 0}
              for i in range(60)]
    placed = db.load_rows("orders", orders)
    assert placed == loaded
    for i in (0, 17, 59):
        shard = db.shard_of("customers", i)
        assert db.shard_of("orders", i) == shard
        rows = db.shards[shard].execute(
            "SELECT * FROM customers WHERE id = ?", (i,))
        assert len(rows.rows) == 1
    # Global tables replicate everywhere.
    replicated = db.load_rows("countries", [{"id": 1, "customers_id": 0,
                                             "value": 0}])
    assert replicated == {0: 1, 1: 1, 2: 1}
    with pytest.raises(SqlError, match="partition key"):
        db.load_rows("orders", [{"id": 5, "value": 0}])


def test_lock_scoping_names_the_shard():
    db = _sharded_bookstore_slice()
    conn = db.connection()
    conn.lock_tables({1: [("customers", "READ")]})
    with pytest.raises(LockError, match=r"db\.s2"):
        conn.execute(1, "UPDATE customers SET value = 1 WHERE id = 1")
    conn.unlock_all()
    assert not conn.session(1).locks


def test_cross_shard_transaction_commits_under_spans():
    db = _sharded_bookstore_slice()
    db.load_rows("customers", [{"id": i, "customers_id": i, "value": 0}
                               for i in range(40)])
    db.load_rows("items", [{"id": i, "customers_id": 0, "value": 9}
                           for i in range(40)])
    # Pick a customer and an item living on different shards.
    customer = next(i for i in range(40)
                    if db.shard_of("customers", i) == 0)
    item = next(i for i in range(40) if db.shard_of("items", i) == 1)
    conn = db.connection()
    conn.lock_tables({0: [("customers", "WRITE")],
                      1: [("items", "WRITE")]})
    ok = conn.transaction([
        (0, "UPDATE customers SET value = 5 WHERE id = ?", (customer,)),
        (1, "UPDATE items SET value = 8 WHERE id = ?", (item,))])
    assert ok and conn.commits == 1
    assert db.shards[0].execute(
        "SELECT value FROM customers WHERE id = ?",
        (customer,)).rows[0][0] == 5
    assert db.shards[1].execute(
        "SELECT value FROM items WHERE id = ?", (item,)).rows[0][0] == 8
    # Either way the spans are gone afterwards.
    for shard in (0, 1):
        assert not conn.session(shard).locks


def test_transaction_aborts_before_any_write_runs():
    db = _sharded_bookstore_slice()
    db.load_rows("customers", [{"id": 1, "customers_id": 1, "value": 0}])
    db.load_rows("items", [{"id": 1, "customers_id": 0, "value": 0}])
    s_cust = db.shard_of("customers", 1)
    s_item = db.shard_of("items", 1)
    statements = [
        (s_cust, "UPDATE customers SET value = 7 WHERE id = 1", ()),
        (s_item, "UPDATE items SET value = 7 WHERE id = 1", ())]
    # A participant without a lock span fails the prepare vote: no
    # statement on *either* shard has executed (presumed abort).
    conn = db.connection()
    conn.lock_tables({s_cust: [("customers", "WRITE")]})
    with pytest.raises(SqlError, match="no lock span"):
        conn.transaction(statements)
    # A participant crash at prepare time (fail_shard) aborts cleanly.
    conn2 = db.connection()
    conn2.lock_tables({s_cust: [("customers", "WRITE")],
                       s_item: [("items", "WRITE")]})
    assert conn2.transaction(statements, fail_shard=s_item) is False
    assert conn2.aborts == 1
    for db_, table in ((db.shards[s_cust], "customers"),
                       (db.shards[s_item], "items")):
        assert db_.execute(
            f"SELECT value FROM {table} WHERE id = 1").rows[0][0] == 0
    assert not conn2.session(s_cust).locks


# -- simulated DB[N] runs ------------------------------------------------------


def _fresh_bookstore():
    return BookstoreApp(build_bookstore_database(scale=0.005, tiny=True))


@pytest.fixture(scope="module")
def app():
    return _fresh_bookstore()


@pytest.fixture(scope="module")
def profiles(app):
    return profile_all_flavors(app, repetitions=2)


def _spec(config, profiles, app, **overrides):
    kwargs = dict(config=config,
                  profile=profiles[config.profile_flavor],
                  mix=app.mix("ordering"), clients=8,
                  ramp_up=15.0, measure=45.0, ramp_down=5.0, seed=42,
                  app_name="bookstore")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_sharded_run_is_deterministic_and_exercises_the_router(app,
                                                               profiles):
    config = topology("Ws-Servlet-DB", db_shards=2, db_replicas=1)
    first = run_experiment(_spec(config, profiles, app))
    second = run_experiment(_spec(config, profiles, app))
    assert asdict(first) == asdict(second)
    assert first.throughput_ipm > 0
    shard = first.shard
    assert shard.single_shard_reads > 0
    assert shard.span_statements > 0
    # The ordering mix's checkouts split customer/item groups across
    # two shards often enough that cross-shard 2PC must have happened.
    assert shard.cross_shard_spans > 0
    assert shard.twopc_commits > 0
    assert shard.twopc_aborts == 0


def test_build_site_dispatches_on_the_shard_count(app, profiles):
    """The database tiers are a linear chain of classes and the shard
    count picks one; a cache tier on top is an interposer on the same
    ``ShardedSite``, not another class."""
    from repro.cache.site import SiteCache
    from repro.cluster.site import ClusteredSite
    from repro.shard.site import ShardedSite
    from repro.topology.simulation import SimulatedSite

    assert ShardedSite.__mro__[:3] == (ShardedSite, ClusteredSite,
                                       SimulatedSite)
    sharded = topology("Ws-Servlet-DB", db_shards=2)
    site = build_site(Simulator(), _spec(sharded, profiles, app))
    assert type(site) is ShardedSite
    assert site.cache is None and site.shard_stats is not None
    assert len(site.repls) == 2
    # No interposer: the seam is the tier's own terminal.
    assert site._db_query == site._db_statement
    assert site._db_query.__func__ is ShardedSite._db_statement

    both = topology("Ws-Servlet-DB", db_shards=2, cache_nodes=1,
                    cache_mb=8.0)
    site = build_site(Simulator(), _spec(both, profiles, app))
    assert type(site) is ShardedSite
    assert type(site.cache) is SiteCache
    assert site._db_query == site.cache.db_query
    assert site.cache.next_db_query == site._db_statement

    cluster = topology("Ws-Servlet-DB", db_replicas=1)
    site = build_site(Simulator(), _spec(cluster, profiles, app))
    assert type(site) is ClusteredSite
    assert site.shard_stats is None and len(site.repls) == 1
    assert site._db_query.__func__ is ClusteredSite._db_statement
    paper = topology("Ws-Servlet-DB", TopologySpec())
    site = build_site(Simulator(), _spec(paper, profiles, app))
    assert type(site) is SimulatedSite
    assert site._db_query.__func__ is SimulatedSite._db_statement


def test_sharded_site_refuses_single_shard_configs(app, profiles):
    from repro.shard.site import ShardedSite

    config = topology("Ws-Servlet-DB", db_replicas=1)
    with pytest.raises(ValueError, match="single shard"):
        ShardedSite(Simulator(), config,
                    profiles[config.profile_flavor])


# -- the 2PC fault property ----------------------------------------------------


SHARD_MEMBERS = ("db", "db.r1", "db.s2", "db.s2.r1")


@settings(max_examples=6, deadline=None)
@given(victim=st.sampled_from(SHARD_MEMBERS),
       at=st.floats(min_value=15.0, max_value=40.0),
       duration=st.floats(min_value=5.0, max_value=15.0))
def test_any_shard_member_crash_leaves_no_undecided_transactions(
        app, profiles, victim, at, duration):
    """The ISSUE's 2PC property: any fault plan over shard members --
    primaries mid-prepare, replicas mid-read -- ends with no
    prepared-but-undecided transactions, no dangling locks in any
    shard's registry, and a quiescent kernel."""
    config = topology("Ws-Servlet-DB", db_shards=2, db_replicas=1)
    plan = FaultPlan((FaultEvent(kind="crash", tier=victim, at=at,
                                 duration=duration),))
    sim = Simulator()
    from repro.shard.site import ShardedSite
    site = ShardedSite(sim, config, profiles[config.profile_flavor],
                       rng=RngStreams(7))
    population = ClientPopulation(
        sim, 8, app.mix("ordering"), site, RngStreams(7),
        choose_interaction, retry=RetryPolicy(deadline=5.0, max_retries=2))
    FaultInjector(sim, site, plan).start()
    population.start()
    sim.run(until=90.0)
    population.stop()
    sim.run()
    assert site.twopc.in_flight == {}, "prepared-but-undecided txn"
    assert all(p.finished for p in population._procs), "stuck client"
    assert not site.inflight_processes(), "stuck in-flight interaction"
    registries = [site._table_locks]
    for repl in site.repls[1:]:
        registries.append(repl.primary.table_locks)
        registries.extend(r.table_locks for r in repl.replicas)
    for registry in registries:
        for lock in registry.values():
            assert not (lock.writer or lock.readers
                        or lock.waiting_writers or lock.waiting_readers), \
                f"dangling lock {lock.name}"
    assert sim.quiescent()


def test_crashed_shard_run_still_matches_determinism(app, profiles):
    config = topology("Ws-Servlet-DB", db_shards=2, db_replicas=1)
    overrides = dict(
        fault_plan=FaultPlan((FaultEvent(kind="crash", tier="db.s2",
                                         at=25.0, duration=10.0),)),
        retry=RetryPolicy(deadline=5.0, max_retries=2))
    first = run_experiment(_spec(config, profiles, app, **overrides))
    second = run_experiment(_spec(config, profiles, app, **overrides))
    assert asdict(first) == asdict(second)
    assert first.throughput_ipm > 0


# -- ext_shard plumbing --------------------------------------------------------


def test_shard_arm_labels_and_config_for():
    from repro.experiments.ext_shard import ShardArm, config_for

    assert ShardArm(1, 7).boxes == 8
    assert ShardArm(4, 1).boxes == 8
    assert ShardArm(1, 7).label == "DB(1+7)"
    assert ShardArm(8, 0).label == "DB[8]"
    assert ShardArm(2, 3).label == "DB[2](1+3)"
    config = config_for("Ws-Servlet-DB", ShardArm(2, 3), front=8)
    assert config.name == "Ws{8}-Servlet{8}-DB[2](1+3)"
    assert config_for("Ws-Servlet-DB", ShardArm(1, 0), front=1).name \
        == "Ws-Servlet-DB"
