"""Tests for demand tables, MVA, and DES/analytic consistency."""

import re
from dataclasses import replace

import pytest

from repro.analytic.bounds import bounds_for
from repro.analytic.demand import DemandTable, expected_demands
from repro.analytic.mva import solve_mva, throughput_curve
from repro.apps.auction import AuctionApp, build_auction_database
from repro.harness.experiment import (
    ExperimentSpec,
    Phases,
    build_site,
    measure_point,
    point_spec,
    run_experiment,
)
from repro.harness.profiles import profile_application
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import (
    ALL_CONFIGURATIONS,
    WS_PHP_DB,
    WS_SEP_SERVLET_DB,
    WS_SERVLET_EJB_DB,
)
from repro.topology.spec import parse_topology
from repro.workload.client import ClientPopulation
from repro.workload.markov import choose_interaction


@pytest.fixture(scope="module")
def auction_app():
    return AuctionApp(build_auction_database(scale=0.0005, tiny=True))


@pytest.fixture(scope="module")
def auction_php_profile(auction_app):
    return profile_application(auction_app, auction_app.deploy_php(),
                               "php", repetitions=2)


@pytest.fixture(scope="module")
def auction_servlet_profile(auction_app):
    return profile_application(auction_app, auction_app.deploy_servlet(),
                               "servlet", repetitions=2)


MIX = {"view_item": 40.0, "search_items_in_category": 30.0,
       "browse_categories": 20.0, "store_bid": 10.0}


# --------------------------------------------------------------------- MVA

def test_mva_single_station_saturates_at_inverse_demand():
    result = solve_mva({"db": 0.1}, clients=200, think_time=1.0)
    assert result.throughput == pytest.approx(10.0, rel=0.01)
    assert result.utilization["db"] == pytest.approx(1.0, abs=0.01)


def test_mva_low_population_is_think_limited():
    result = solve_mva({"db": 0.01}, clients=5, think_time=10.0)
    assert result.throughput == pytest.approx(5 / 10.01, rel=0.02)
    assert result.utilization["db"] < 0.01


def test_mva_bottleneck_is_largest_demand():
    result = solve_mva({"web": 0.02, "db": 0.05}, clients=500,
                       think_time=1.0)
    assert result.throughput == pytest.approx(20.0, rel=0.01)
    assert result.utilization["db"] > result.utilization["web"]


def test_mva_monotone_in_population():
    prev = 0.0
    for n in (1, 5, 20, 80, 320):
        result = solve_mva({"a": 0.03, "b": 0.02}, n, think_time=2.0)
        assert result.throughput >= prev - 1e-9
        prev = result.throughput


def test_mva_rejects_bad_args():
    with pytest.raises(ValueError):
        solve_mva({"a": 0.1}, clients=0)
    with pytest.raises(ValueError):
        solve_mva({"a": 0.1}, clients=5, think_time=-1)


def test_throughput_curve_sorted():
    table = DemandTable(config_name="x", cpu_seconds={"db": 0.05})
    results = throughput_curve(table, [50, 10, 100], think_time=1.0)
    assert [r.clients for r in results] == [10, 50, 100]


# ------------------------------------------------------------ demand tables

def test_demand_table_bottleneck_and_peak():
    table = DemandTable(config_name="x",
                        cpu_seconds={"web": 0.002, "db": 0.004})
    assert table.bottleneck() == "db"
    assert table.max_throughput() == pytest.approx(250.0)


def test_expected_demands_covers_config_machines(auction_app,
                                                 auction_php_profile):
    table = expected_demands(WS_PHP_DB, auction_php_profile, MIX)
    assert set(table.cpu_seconds) == {"web", "db"}
    assert all(v > 0 for v in table.cpu_seconds.values())


def test_expected_demands_separate_servlet(auction_servlet_profile):
    table = expected_demands(WS_SEP_SERVLET_DB, auction_servlet_profile, MIX)
    assert set(table.cpu_seconds) == {"web", "servlet", "db"}
    # The servlet NIC carries the AJP traffic on top of the queries.
    assert table.nic_bytes["servlet"] > table.nic_bytes["db"]


def test_expected_demands_refuses_non_paper_topologies(
        auction_servlet_profile):
    """A one-request dry run cannot spread a pool's, cache's or shard's
    demand over its members: refuse instead of pricing the base shape."""
    for name in ("Ws{2}-Servlet{2}-DB(1+1)", "Ws-Servlet-Cache{2}-DB",
                 "Ws-Servlet-DB[2]"):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            expected_demands(parse_topology(name), auction_servlet_profile,
                             MIX)
    # A trivial variant canonicalizes to the paper configuration.
    assert expected_demands(
        parse_topology("Ws{1}-Servlet-Cache{0}-DB(1+0)"),
        auction_servlet_profile, MIX) == \
        expected_demands(WS_SEP_SERVLET_DB, auction_servlet_profile, MIX)


def test_expected_demands_ejb(auction_app):
    presentation, __ = auction_app.deploy_ejb()
    profile = profile_application(auction_app, presentation, "ejb",
                                  repetitions=2)
    table = expected_demands(WS_SERVLET_EJB_DB, profile, MIX)
    assert set(table.cpu_seconds) == {"web", "servlet", "ejb", "db"}
    # The EJB NIC carries the RMI traffic on top of the queries.
    assert table.nic_bytes["ejb"] > table.nic_bytes["db"]
    # The EJB server carries the biggest burden for this app.
    assert table.bottleneck() == "ejb"


# ------------------------------------------------- DES vs analytic agreement

def test_des_matches_mva_without_contention(auction_app,
                                            auction_php_profile):
    """At a read-dominated mix the DES and MVA must agree closely --
    this pins the simulator's charging rules to the analytic model."""
    read_mix = {"view_item": 50.0, "browse_categories": 25.0,
                "view_user_info": 25.0}
    table = expected_demands(WS_PHP_DB, auction_php_profile, read_mix)
    for clients in (50, 400):
        mva = solve_mva(dict(table.cpu_seconds), clients, think_time=7.0)
        spec = ExperimentSpec(
            config=WS_PHP_DB, profile=auction_php_profile, mix=read_mix,
            clients=clients, ramp_up=60, measure=240, ramp_down=5)
        des = run_experiment(spec)
        assert des.throughput_ipm == pytest.approx(
            mva.throughput_ipm, rel=0.12), f"{clients} clients"


#: (app, mix, share of the analytic knee population, phases): loads
#: well below saturation, where the utilization law holds per machine.
LAW_POINTS = [("auction", "bidding", 0.1, Phases(20.0, 60.0, 2.0)),
              ("bookstore", "shopping", 0.5, Phases(40.0, 150.0, 5.0))]


@pytest.mark.parametrize("config", ALL_CONFIGURATIONS,
                         ids=lambda config: config.name)
@pytest.mark.parametrize("app_name, mix_name, share, phases", LAW_POINTS,
                         ids=["auction-bidding", "bookstore-shopping"])
def test_des_utilizations_obey_the_utilization_law(app_name, mix_name,
                                                   share, phases, config):
    """U_k = X * D_k on every machine, with D_k priced for the mix that
    completed in the window: at low load a few long interactions
    (bookstore ``best_sellers``) carry most of the demand, so the
    declared mix would mis-state it by up to ~56 %."""
    spec = point_spec(app_name, mix_name, config, 1, phases)
    knee = bounds_for(expected_demands(
        config, spec.profile, spec.mix,
        spec.ssl_interactions)).knee_population
    spec = replace(spec, clients=max(1, round(share * knee)))
    sim = Simulator()
    site = build_site(sim, spec)
    population = ClientPopulation(sim, spec.clients, spec.mix, site,
                                  RngStreams(spec.seed), choose_interaction,
                                  think=spec.think)
    point, stats = measure_point(spec, sim, site, population)
    table = expected_demands(config, spec.profile, stats.per_interaction,
                             spec.ssl_interactions)
    x = point.throughput_ipm / 60.0
    measured = {"web": point.cpu.web_server, "db": point.cpu.database,
                "servlet": point.cpu.servlet_container,
                "ejb": point.cpu.ejb_server}
    assert set(table.cpu_seconds) == {m for m, u in measured.items()
                                      if u is not None}
    for machine, demand in table.cpu_seconds.items():
        assert measured[machine] == pytest.approx(x * demand, rel=0.10), \
            machine


# ------------------------------------------------------------------ bounds

def test_bounds_bracket_mva():
    """The asymptotic bounds must bracket the exact MVA curve."""
    from repro.analytic.bounds import OperationalBounds
    bounds = OperationalBounds(demands={"web": 0.004, "db": 0.002},
                               think_time=7.0)
    for n in (1, 10, 100, 1000, 5000):
        exact = solve_mva({"web": 0.004, "db": 0.002}, n, 7.0).throughput
        assert bounds.lower(n) - 1e-9 <= exact <= bounds.upper(n) + 1e-9


def test_bounds_knee_and_saturation():
    from repro.analytic.bounds import OperationalBounds
    bounds = OperationalBounds(demands={"web": 0.005}, think_time=7.0)
    assert bounds.saturation_throughput == pytest.approx(200.0)
    assert bounds.knee_population == pytest.approx(7.005 / 0.005)
    assert bounds.bottleneck == "web"
    # Above the knee the upper bound is flat at saturation.
    assert bounds.upper(10_000) == pytest.approx(200.0)
    assert bounds.upper(10) == pytest.approx(10 / 7.005)


def test_bounds_knee_predicts_paper_peak(auction_app, auction_php_profile):
    """WsPhp-DB on the bidding mix must knee near the paper's 1,100
    clients."""
    from repro.analytic.bounds import bounds_for
    from repro.apps.auction.mixes import BIDDING_MIX
    table = expected_demands(WS_PHP_DB, auction_php_profile, BIDDING_MIX)
    bounds = bounds_for(table)
    assert 700 <= bounds.knee_population <= 1600


def test_bounds_for_validates():
    from repro.analytic.bounds import bounds_for
    from repro.analytic.demand import DemandTable
    with pytest.raises(ValueError):
        bounds_for(DemandTable(config_name="x"))
    with pytest.raises(ValueError):
        bounds_for(DemandTable(config_name="x", cpu_seconds={"a": 1.0}),
                   think_time=-1)
