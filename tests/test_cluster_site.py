"""Integration tests for clustered sites: the trivial-cluster identity
guarantee, replicated runs, crash re-routing through balancers, the
read/write-splitting driver connection, and the scale CLI plumbing."""

from dataclasses import asdict

import pytest

from repro.apps import build_app
from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.cluster.site import ClusteredSite
from repro.db.driver import JdbcLikeDriver, ReadWriteSplitConnection
from repro.faults.plan import FaultPlan
from repro.harness.experiment import ExperimentSpec, build_site, run_experiment
from repro.harness.profiles import profile_all_flavors
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import ALL_CONFIGURATIONS, configuration_by_name
from repro.topology.simulation import SimulatedSite
from repro.topology.spec import TopologySpec, clustered
from repro.workload.client import (
    ClientPopulation,
    RetryPolicy,
    ThinkTimeSpec,
)
from repro.workload.markov import choose_interaction


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def profiles(app):
    return profile_all_flavors(app, repetitions=2)


def _spec(config, profiles, app, **overrides):
    kwargs = dict(config=config,
                  profile=profiles[config.profile_flavor],
                  mix=app.mix("shopping"), clients=6,
                  ramp_up=20.0, measure=40.0, ramp_down=5.0, seed=42)
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


# -- the identity guarantee ----------------------------------------------------


def test_trivial_cluster_matches_base_field_for_field(app, profiles):
    """``clustered(base)`` with no extra members must reproduce the
    paper configuration's run bit-for-bit: same throughput, same CPU
    samples, same kernel event count."""
    for base in ALL_CONFIGURATIONS:
        base_point = run_experiment(_spec(base, profiles, app))
        cluster_point = run_experiment(_spec(clustered(base), profiles, app))
        assert asdict(cluster_point) == asdict(base_point), base.name


def test_faulted_trivial_cluster_matches_base(app, profiles):
    """Identity holds through the fault injector too: a db crash on the
    trivial cluster replays the base site's run exactly."""
    base = configuration_by_name("Ws-Servlet-DB")
    overrides = dict(
        clients=5, ramp_up=15.0, measure=50.0, ramp_down=5.0, seed=7,
        fault_plan=FaultPlan.single_crash("db", at=25.0, duration=10.0),
        retry=RetryPolicy(deadline=10.0, max_retries=3))
    base_point = run_experiment(_spec(base, profiles, app, **overrides))
    cluster_point = run_experiment(
        _spec(clustered(base), profiles, app, **overrides))
    assert asdict(cluster_point) == asdict(base_point)


# -- replicated runs -----------------------------------------------------------


def _drive_cluster(profiles, app, config, n_clients=8, until=90.0,
                   plan=None, retry=None, seed=11, think=None):
    sim = Simulator()
    site = ClusteredSite(sim, config, profiles[config.profile_flavor],
                         rng=RngStreams(seed))
    population = ClientPopulation(
        sim, n_clients, app.mix("shopping"), site, RngStreams(seed),
        choose_interaction, think=think, retry=retry)
    if plan is not None:
        from repro.faults.injector import FaultInjector
        FaultInjector(sim, site, plan).start()
    population.start()
    sim.run(until=until)
    return sim, site


def test_replicated_run_is_deterministic(app, profiles):
    config = clustered("Ws-Servlet-DB", web=2, gen=2, db_replicas=2)
    spec_kwargs = dict(clients=10, ramp_up=20.0, measure=40.0,
                       ramp_down=5.0, seed=42)
    first = run_experiment(_spec(config, profiles, app, **spec_kwargs))
    second = run_experiment(_spec(config, profiles, app, **spec_kwargs))
    assert asdict(first) == asdict(second)
    assert first.throughput_ipm > 0


def test_replicated_run_uses_every_member(app, profiles):
    config = clustered("Ws-Servlet-DB", web=2, gen=2, db_replicas=2)
    __, site = _drive_cluster(profiles, app, config)
    assert all(count > 0 for count in site.web_lb.served.values())
    assert all(count > 0 for count in site.gen_lb.served.values())
    assert all(r.reads_served > 0 for r in site.repl.replicas)


def test_gen_member_crash_reroutes_through_balancer(app, profiles):
    """Crashing one servlet engine mid-run re-routes its queued
    requests to the surviving member instead of failing them."""
    config = clustered("Ws-Servlet-DB", web=2, gen=2)
    plan = FaultPlan.single_crash("servlet#2", at=30.0, duration=20.0)
    # short think time keeps requests in flight at the crash instant
    __, site = _drive_cluster(
        profiles, app, config, n_clients=40, until=120.0, plan=plan,
        think=ThinkTimeSpec(think_mean=0.3),
        retry=RetryPolicy(deadline=10.0, max_retries=3))
    assert site.reroutes > 0
    # the crashed member rejoined and both engines served requests
    assert all(count > 0 for count in site.gen_lb.served.values())


def test_db_replica_crash_rejoin_catches_up(app, profiles):
    """A crashed read replica misses shipped writes; on rejoin it
    replays the log and converges with the primary."""
    config = clustered("Ws-Servlet-DB", web=1, gen=1, db_replicas=2)
    plan = FaultPlan.single_crash("db.r1", at=30.0, duration=20.0)
    sim, site = _drive_cluster(
        profiles, app, config, until=200.0, plan=plan,
        retry=RetryPolicy(deadline=10.0, max_retries=3))
    sim.run(until=sim.now + 60.0)       # drain: lag + catch-up applies
    assert site.repl.commit_seq > 0
    for replica in site.repl.replicas:
        assert replica.applied_seq == site.repl.commit_seq


# -- functional read/write splitting ------------------------------------------


@pytest.fixture
def split_conn(app):
    driver = JdbcLikeDriver(app.database)
    conn = ReadWriteSplitConnection(
        driver.connect(), [driver.connect(), driver.connect()])
    yield conn
    conn.close()


def test_split_connection_routes_selects_to_replicas(split_conn):
    before = split_conn.reads_split
    split_conn.execute("SELECT * FROM items WHERE id = 1")
    split_conn.execute("SELECT * FROM items WHERE id = 2")
    assert split_conn.reads_split == before + 2


def test_split_connection_writes_pin_until_sync(split_conn):
    split_conn.execute(
        "UPDATE items SET stock = stock + 1 WHERE id = 1")
    split_conn.execute("SELECT * FROM items WHERE id = 1")
    assert split_conn.reads_split == 0      # read-your-writes: primary
    split_conn.sync_replicas()
    split_conn.execute("SELECT * FROM items WHERE id = 1")
    assert split_conn.reads_split == 1


def test_split_connection_lock_span_stays_on_primary(split_conn):
    split_conn.execute("LOCK TABLES items WRITE")
    split_conn.execute("SELECT * FROM items WHERE id = 1")
    assert split_conn.reads_split == 0      # inside the lock span
    split_conn.execute("UNLOCK TABLES")
    split_conn.sync_replicas()
    split_conn.execute("SELECT * FROM items WHERE id = 1")
    assert split_conn.reads_split == 1


# -- functional pools and site dispatch ---------------------------------------


def test_build_app_deploys_a_pool():
    app, pool = build_app("bookstore", "servlet",
                          cluster=TopologySpec(web=2, gen=2),
                          scale=0.002, tiny=True)
    assert len(pool) == 2
    assert pool[0] is not pool[1]
    responses = [engine.handle(__request_for(app))[0] for engine in pool]
    assert all(r.status == 200 for r in responses)


def __request_for(app):
    from repro.apps.bookstore.mixes import make_request
    import random
    return make_request("home", random.Random(5), app.make_state(
        random.Random(5)))


def test_deploy_pool_rejects_empty(app):
    with pytest.raises(ValueError, match=">= 1"):
        app.deploy_pool("servlet", 0)


def test_build_site_dispatches_on_cluster_axis(app, profiles):
    base = configuration_by_name("WsPhp-DB")
    sim = Simulator()
    plain = build_site(sim, _spec(base, profiles, app))
    assert type(plain) is SimulatedSite
    clustered_site = build_site(
        Simulator(), _spec(clustered(base, web=2), profiles, app))
    assert isinstance(clustered_site, ClusteredSite)
