"""Tests for the cache tier (repro.cache): the LRU store, sharding,
the functional twins' field-for-field equivalence with uncached stacks
(hypothesis), simulated cached runs (determinism, disabled-cache
identity, node crashes), and the ext_cache experiment plumbing."""

import random
from dataclasses import asdict

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.cache.functional import CachedDeployment, CachingConnection
from repro.cache.lru import ENTRY_OVERHEAD_BYTES, LruStore
from repro.cache.site import SiteCache, attach_cache
from repro.cache.tier import CacheTierStats, shard_index
from repro.cluster.site import ClusteredSite
from repro.db import Column, ColumnType, Database, TableSchema
from repro.db.driver import NativeDriver
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.harness.experiment import ExperimentSpec, build_site, run_experiment
from repro.harness.profiles import profile_all_flavors
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.topology.spec import TopologySpec, topology
from repro.workload.client import ClientPopulation, RetryPolicy
from repro.workload.markov import choose_interaction


# -- the LRU store -------------------------------------------------------------


def _put(store, key, nbytes, expires_at=None, tags=()):
    return store.put(key, nbytes, expires_at, tuple(tags))


def test_lru_store_expires_by_ttl():
    stats = CacheTierStats()
    store = LruStore(10_000, stats)
    _put(store, "a", 100, expires_at=10.0)
    assert store.get("a", 9.9) is not None
    assert store.get("a", 10.0) is None
    assert stats.expirations == 1
    assert len(store) == 0 and store.used_bytes == 0


def test_lru_store_evicts_oldest_and_get_touches():
    capacity = 2 * (100 + ENTRY_OVERHEAD_BYTES)
    stats = CacheTierStats()
    store = LruStore(capacity, stats)
    _put(store, "a", 100)
    _put(store, "b", 100)
    store.get("a", 0.0)                 # "a" is now the recent one
    _put(store, "c", 100)               # evicts "b", the LRU entry
    assert store.get("b", 0.0) is None
    assert store.get("a", 0.0) is not None
    assert store.get("c", 0.0) is not None
    assert stats.evictions == 1
    assert store.used_bytes <= capacity


def test_lru_store_rejects_oversized_values():
    store = LruStore(100)
    assert not _put(store, "big", 200)
    assert len(store) == 0


def test_table_granular_invalidation_kills_any_dependent():
    store = LruStore(10_000)
    _put(store, "a", 10, tags=[("items", None)])
    _put(store, "b", 10, tags=[("orders", None)])
    assert store.invalidate("items", writer_entity=7) == 1
    assert store.get("a", 0.0) is None
    assert store.get("b", 0.0) is not None


def test_key_granular_invalidation_spares_other_entities():
    store = LruStore(10_000)
    _put(store, "a", 10, tags=[("items", 1)])
    _put(store, "b", 10, tags=[("items", 2)])
    _put(store, "c", 10, tags=[("items", None)])    # unpinned: always dies
    assert store.invalidate("items", writer_entity=1) == 2
    assert store.get("a", 0.0) is None
    assert store.get("b", 0.0) is not None
    assert store.get("c", 0.0) is None
    # An unknown writer entity is conservative: everything left dies.
    assert store.invalidate("items", writer_entity=None) == 1
    assert store.get("b", 0.0) is None


def test_shard_index_is_deterministic_and_spreads():
    keys = [("q", "home", i) for i in range(200)]
    first = [shard_index(k, 4) for k in keys]
    assert first == [shard_index(k, 4) for k in keys]
    assert all(0 <= s < 4 for s in first)
    assert len(set(first)) == 4         # all shards get traffic


# -- functional twins: cached == uncached, field for field ---------------------


def _counter_db():
    db = Database()
    db.create_table(TableSchema(
        name="counters",
        columns=[Column("id", ColumnType.INT, nullable=False),
                 Column("value", ColumnType.INT)],
        primary_key="id", auto_increment=True))
    for value in (10, 20, 30):
        db.execute(f"INSERT INTO counters (value) VALUES ({value})")
    return db


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("write"), st.integers(min_value=1, max_value=3))),
    min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(ops=_ops)
def test_caching_connection_matches_uncached_under_interleavings(ops):
    """Any read/write interleaving: the cached connection serves
    field-for-field identical results to a plain one."""
    plain = NativeDriver(_counter_db()).connect()
    cached = CachingConnection(NativeDriver(_counter_db()).connect())
    for step, (op, row_id) in enumerate(ops):
        if op == "read":
            a = plain.execute("SELECT * FROM counters WHERE id = ?",
                              (row_id,))
            b = cached.execute("SELECT * FROM counters WHERE id = ?",
                               (row_id,))
            assert (a.rows, a.columns) == (b.rows, b.columns)
        else:
            sql = "UPDATE counters SET value = ? WHERE id = ?"
            plain.execute(sql, (step, row_id))
            cached.execute(sql, (step, row_id))
    # Final ground truth: full-table scans agree too.
    a = plain.execute("SELECT * FROM counters")
    b = cached.execute("SELECT * FROM counters")
    assert (a.rows, a.columns) == (b.rows, b.columns)


def test_caching_connection_actually_caches_and_invalidates():
    cached = CachingConnection(NativeDriver(_counter_db()).connect())
    for __ in range(3):
        cached.execute("SELECT * FROM counters WHERE id = 1")
    assert cached.stats.query_hits == 2
    cached.execute("UPDATE counters SET value = 99 WHERE id = 1")
    assert cached.stats.invalidated_entries == 1
    result = cached.execute("SELECT * FROM counters WHERE id = 1")
    assert cached.stats.query_misses == 2       # re-fetched after the write
    assert result.rows[0][result.columns.index("value")] == 99


def _fresh_bookstore():
    return BookstoreApp(build_bookstore_database(scale=0.005, tiny=True))


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cached_deployment_pages_match_uncached(seed):
    """Two private identical stacks driven by the same interaction
    stream (shopping mix: reads *and* writes) render identical pages
    whether or not the page-fragment cache sits in front."""
    app1, app2 = _fresh_bookstore(), _fresh_bookstore()
    dep_plain = app1.deploy("php")
    dep_cached = CachedDeployment(app2.deploy("php"), app2)
    state1 = app1.make_state(random.Random(seed))
    state2 = app2.make_state(random.Random(seed))
    mix = app1.mix("shopping")
    for i in range(40):
        name = app1.choose_interaction(mix, random.Random(seed + i))
        r1 = app1.make_request(name, random.Random(100 + i), state1)
        r2 = app2.make_request(name, random.Random(100 + i), state2)
        resp1, __ = dep_plain.handle(r1)
        resp2, __ = dep_cached.handle(r2)
        assert (resp1.status, resp1.body) == (resp2.status, resp2.body), name
    assert dep_cached.stats.page_lookups > 0


# -- simulated cached runs -----------------------------------------------------


@pytest.fixture(scope="module")
def app():
    return _fresh_bookstore()


@pytest.fixture(scope="module")
def profiles(app):
    return profile_all_flavors(app, repetitions=2)


CACHED_CONFIG_KW = dict(cache_nodes=2, cache_mb=8.0)


def _spec(config, profiles, app, **overrides):
    kwargs = dict(config=config,
                  profile=profiles[config.profile_flavor],
                  mix=app.mix("browsing"), clients=8,
                  ramp_up=15.0, measure=45.0, ramp_down=5.0, seed=42,
                  app_name="bookstore")
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def test_cached_run_hits_and_is_deterministic(app, profiles):
    config = topology("Ws-Servlet-DB", TopologySpec(**CACHED_CONFIG_KW))
    first = run_experiment(_spec(config, profiles, app))
    second = run_experiment(_spec(config, profiles, app))
    assert asdict(first) == asdict(second)
    assert first.throughput_ipm > 0
    stats = first.cache
    assert stats.query_hits + stats.page_hits > 0
    assert asdict(stats) == asdict(second.cache)


def test_round_robin_mode_replicates_stores(app, profiles):
    config = topology("Ws-Servlet-DB", TopologySpec(
        cache_mode="round_robin", **CACHED_CONFIG_KW))
    point = run_experiment(_spec(config, profiles, app))
    assert point.throughput_ipm > 0
    # Replication writes every entry to both nodes.
    assert point.cache.stores > 0


def test_disabled_cache_builds_the_plain_site_types(app, profiles):
    """Without cache nodes nothing is interposed: every seam *is* its
    mechanism and ``site.cache`` is None, on the paper site and on a
    cluster alike.  With them, the same ``ClusteredSite`` carries a
    ``SiteCache`` on its *db_query* seam and (bookstore: in-process
    fragments) on the ``_fragments`` hook."""
    from repro.topology.simulation import SimulatedSite

    paper = topology("Ws-Servlet-DB", TopologySpec())
    cluster = topology("Ws-Servlet-DB", TopologySpec(web=2))
    for config, cls in ((paper, SimulatedSite), (cluster, ClusteredSite)):
        site = build_site(Simulator(), _spec(config, profiles, app))
        assert type(site) is cls
        assert site.cache is None and site._fragments is None
        assert site._front == site._perform
        assert site._generate == site._run_container
        assert site._db_query == site._db_statement
    cached = topology("Ws-Servlet-DB", TopologySpec(**CACHED_CONFIG_KW))
    site = build_site(Simulator(), _spec(cached, profiles, app))
    assert type(site) is ClusteredSite
    assert type(site.cache) is SiteCache
    assert site._db_query == site.cache.db_query
    assert site.cache.next_db_query == site._db_statement
    assert site._fragments is site.cache
    assert site._generate == site._run_container


def test_cache_node_crash_degrades_and_leaves_the_system_clean(app, profiles):
    """Killing a cache node mid-run costs cold misses, never errors:
    the run completes, the store was flushed, and at the end there are
    no dangling locks and the kernel is quiescent."""
    config = topology("Ws-Servlet-DB", TopologySpec(**CACHED_CONFIG_KW))
    plan = FaultPlan((FaultEvent(kind="crash", tier="cache", at=20.0,
                                 duration=15.0),))
    sim = Simulator()
    site = ClusteredSite(sim, config, profiles[config.profile_flavor],
                         rng=RngStreams(7))
    attach_cache(site)
    population = ClientPopulation(
        sim, 8, app.mix("browsing"), site, RngStreams(7),
        choose_interaction, retry=RetryPolicy(deadline=5.0, max_retries=2))
    FaultInjector(sim, site, plan).start()
    population.start()
    sim.run(until=90.0)
    population.stop()
    sim.run()
    assert site.cache.stats.node_flushes == 1
    assert site.cache.stats.query_hits + site.cache.stats.page_hits > 0
    assert all(p.finished for p in population._procs), "stuck client"
    assert not site.inflight_processes(), "stuck in-flight interaction"
    for lock in site._table_locks.values():
        assert not (lock.writer or lock.readers or lock.waiting_writers
                    or lock.waiting_readers)
    for lock in site._sync_locks.values():
        assert not (lock.writer or lock.readers)
    assert sim.quiescent()


def test_crashed_cache_run_still_matches_determinism(app, profiles):
    config = topology("Ws-Servlet-DB", TopologySpec(**CACHED_CONFIG_KW))
    overrides = dict(
        fault_plan=FaultPlan((FaultEvent(kind="crash", tier="cache#2",
                                         at=25.0, duration=10.0),)),
        retry=RetryPolicy(deadline=5.0, max_retries=2))
    first = run_experiment(_spec(config, profiles, app, **overrides))
    second = run_experiment(_spec(config, profiles, app, **overrides))
    assert asdict(first) == asdict(second)
    assert first.throughput_ipm > 0


# -- ext_cache plumbing --------------------------------------------------------


def test_config_for_composes_with_any_topology():
    from repro.experiments.ext_cache import config_for
    from repro.topology.configs import configuration_by_name

    config = config_for("Ws{2}-Servlet{2}-DB(1+1)", nodes=2, size_mb=64.0)
    assert config.name == "Ws{2}-Servlet{2}-Cache{2}-DB(1+1)"
    assert config.machine_names() == [
        "web", "web#2", "servlet", "servlet#2", "cache", "cache#2",
        "db", "db.r1"]
    # Size/nodes 0: exactly the named base, no cache machinery at all.
    assert config_for("Ws-Servlet-DB", 0, 0.0) \
        is configuration_by_name("Ws-Servlet-DB")
    assert config_for("Ws-Servlet-DB", 2, 0.0) \
        is configuration_by_name("Ws-Servlet-DB")
