"""Tests for configurations, profiles, and the simulated site."""

import random

import pytest

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.harness.profiles import (
    compile_trace,
    profile_application,
)
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.sim import Simulator
from repro.topology.configs import (
    ALL_CONFIGURATIONS,
    WS_PHP_DB,
    WS_SEP_SERVLET_DB,
    WS_SERVLET_DB,
    WS_SERVLET_DB_SYNC,
    WS_SERVLET_EJB_DB,
    configuration_by_name,
)
from repro.topology.simulation import SimulatedSite


@pytest.fixture(scope="module")
def bookstore_app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def php_profile(bookstore_app):
    return profile_application(bookstore_app, bookstore_app.deploy_php(),
                               "php", repetitions=2)


@pytest.fixture(scope="module")
def sync_profile(bookstore_app):
    return profile_application(
        bookstore_app, bookstore_app.deploy_servlet(sync_locking=True),
        "servlet_sync", repetitions=2)


# -------------------------------------------------------------- configs

def test_six_configurations_match_paper():
    names = [c.name for c in ALL_CONFIGURATIONS]
    assert names == ["WsPhp-DB", "WsServlet-DB", "WsServlet-DB(sync)",
                     "Ws-Servlet-DB", "Ws-Servlet-DB(sync)",
                     "Ws-Servlet-EJB-DB"]


def test_php_is_colocated_with_web():
    assert WS_PHP_DB.colocated("web", "gen")
    assert not WS_SEP_SERVLET_DB.colocated("web", "gen")


def test_machine_counts():
    assert len(WS_PHP_DB.machine_names()) == 2
    assert len(WS_SERVLET_DB.machine_names()) == 2
    assert len(WS_SEP_SERVLET_DB.machine_names()) == 3
    assert len(WS_SERVLET_EJB_DB.machine_names()) == 4


def test_configuration_by_name():
    assert configuration_by_name("WsPhp-DB") is WS_PHP_DB
    with pytest.raises(KeyError):
        configuration_by_name("nope")


def test_unknown_role_raises():
    with pytest.raises(KeyError):
        WS_PHP_DB.machine_of("ejb")


# -------------------------------------------------------------- profiles

def test_profile_covers_every_interaction(bookstore_app, php_profile):
    assert set(php_profile.interactions) == \
        set(bookstore_app.interaction_names())
    for profile in php_profile.interactions.values():
        assert len(profile.variants) == 2


def test_profile_demands_are_positive(php_profile):
    for name, interaction in php_profile.interactions.items():
        for variant in interaction.variants:
            assert variant.response_bytes > 0, name
            if name != "search_request":
                assert variant.db_cpu_seconds > 0, name


def test_php_profile_has_lock_steps_not_sync(php_profile):
    cart = php_profile.profile("shopping_cart").variants[0]
    kinds = [s[0] for s in cart.steps]
    assert "lock" in kinds and "unlock" in kinds
    assert "sync_acquire" not in kinds


def test_sync_profile_has_sync_steps_not_locks(sync_profile):
    cart = sync_profile.profile("shopping_cart").variants[0]
    kinds = [s[0] for s in cart.steps]
    assert "sync_acquire" in kinds and "sync_release" in kinds
    assert "lock" not in kinds


def test_sync_keys_are_anonymized(sync_profile):
    cart = sync_profile.profile("shopping_cart").variants[0]
    acquire = next(s for s in cart.steps if s[0] == "sync_acquire")
    for table, slot, mode in acquire[1]:
        assert slot is not None          # entity keys -> placeholders
        assert "#" not in table
        assert mode == "WRITE"


def test_read_batching_coalesces_queries():
    """Consecutive read-only queries collapse into counted batches."""
    from repro.middleware.trace import InteractionTrace
    from repro.db.driver import QueryRecord
    from repro.web.http import HttpResponse
    from repro.web.static import StaticContentStore

    trace = InteractionTrace()
    for i in range(10):
        trace.add_query(QueryRecord(
            sql=f"SELECT {i}", kind="select", cpu_seconds=0.001,
            result_bytes=10, rows_returned=1, rows_changed=0,
            tables_read=("t",), tables_written=()))
    trace.response = HttpResponse(body="x" * 100)
    variant = compile_trace(trace, 100, StaticContentStore(), batch_reads=4)
    query_steps = [s for s in variant.steps if s[0] == "query"]
    assert [s[6] for s in query_steps] == [4, 4, 2]
    assert variant.query_count == 10
    assert sum(s[1] for s in query_steps) == pytest.approx(0.010)


def test_writes_never_batched():
    from repro.middleware.trace import InteractionTrace
    from repro.db.driver import QueryRecord
    from repro.web.http import HttpResponse
    from repro.web.static import StaticContentStore

    trace = InteractionTrace()
    for i in range(4):
        trace.add_query(QueryRecord(
            sql="UPDATE t", kind="update", cpu_seconds=0.001,
            result_bytes=0, rows_returned=0, rows_changed=1,
            tables_read=("t",), tables_written=("t",)))
    trace.response = HttpResponse(body="x")
    variant = compile_trace(trace, 100, StaticContentStore())
    query_steps = [s for s in variant.steps if s[0] == "query"]
    assert len(query_steps) == 4
    assert all(s[6] == 1 for s in query_steps)


# ---------------------------------------------------------- simulated site

def test_site_rejects_mismatched_profile(php_profile):
    sim = Simulator()
    with pytest.raises(ValueError):
        SimulatedSite(sim, WS_SERVLET_DB, php_profile)


def test_site_single_interaction_end_to_end(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    rng = random.Random(5)
    proc = sim.spawn(site.perform(0, "product_detail", rng))
    sim.run()
    assert proc.finished
    assert site.interactions_done == 1
    assert site.web.cpu.busy_time() > 0
    assert site.db.cpu.busy_time() > 0
    # No locks left dangling.
    for lock in site._table_locks.values():
        assert not lock.writer and lock.readers == 0


def test_site_sync_interaction_releases_locks(sync_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_SERVLET_DB_SYNC, sync_profile)
    rng = random.Random(5)
    proc = sim.spawn(site.perform(0, "buy_confirm", rng))
    sim.run()
    assert proc.finished
    for lock in site._sync_locks.values():
        assert not lock.writer and lock.readers == 0


def test_separate_servlet_config_uses_three_machines(php_profile,
                                                     sync_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_SEP_SERVLET_DB, _servlet_profile())
    assert set(site.machines) == {"web", "servlet", "db"}
    assert site.gen is site.machines["servlet"]


def _servlet_profile():
    app = BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))
    return profile_application(app, app.deploy_servlet(), "servlet",
                               repetitions=1)


def test_colocated_servlet_charges_one_machine():
    """WsServlet-DB: web and container work land on the same CPU."""
    profile = _servlet_profile()
    sim = Simulator()
    site = SimulatedSite(sim, WS_SERVLET_DB, profile)
    rng = random.Random(5)
    sim.spawn(site.perform(0, "product_detail", rng))
    sim.run()
    assert site.gen is site.web
    assert site.web.cpu.busy_time() > 0


def test_ejb_config_charges_four_machines():
    app = BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))
    presentation, __ = app.deploy_ejb()
    profile = profile_application(app, presentation, "ejb", repetitions=1)
    sim = Simulator()
    site = SimulatedSite(sim, WS_SERVLET_EJB_DB, profile)
    rng = random.Random(5)
    sim.spawn(site.perform(0, "product_detail", rng))
    sim.run()
    assert site.ejb.cpu.busy_time() > 0
    assert site.db.cpu.busy_time() > 0
    assert site.gen.cpu.busy_time() > 0


def test_run_experiment_returns_sane_point(php_profile):
    app_mix = {"product_detail": 50.0, "home": 50.0}
    spec = ExperimentSpec(config=WS_PHP_DB, profile=php_profile,
                          mix=app_mix, clients=20, ramp_up=10,
                          measure=60, ramp_down=2)
    point = run_experiment(spec)
    # 20 clients, ~7s think, fast interactions: ~170 ipm.
    assert point.throughput_ipm == pytest.approx(20 / 7.0 * 60, rel=0.15)
    assert 0 <= point.cpu.web_server <= 1
    assert 0 <= point.cpu.database <= 1
    assert point.cpu.servlet_container is None


def test_experiment_spec_scaled():
    spec = ExperimentSpec(config=WS_PHP_DB, profile=None, mix={},
                          clients=10, ramp_up=100, measure=200, ramp_down=10)
    small = spec.scaled(0.5)
    assert small.measure == 100
    assert small.ramp_up == 50
