"""Ablations of the design choices DESIGN.md section 5 calls out: each
perturbs one mechanism and checks, in the direction its docstring
states, that the effect the paper's story depends on comes from it.
The lock-policy ablations share the lock-wait test's points."""

from dataclasses import replace

import pytest

from repro.analytic.demand import expected_demands
from repro.analytic.mva import solve_mva
from repro.apps import build_app
from repro.apps.auction import AuctionApp, build_auction_database
from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.apps.bookstore.mixes import ORDERING_MIX
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.profiles import get_profiles, profile_application
from repro.middleware.servlet.ajp import AjpCosts
from repro.topology.configs import (
    WS_SERVLET_DB,
    WS_SERVLET_DB_SYNC,
    WS_SERVLET_EJB_DB,
)
from repro.topology.simulation import SimCosts


@pytest.fixture(scope="module")
def ordering():
    """The tiny bookstore's ordering mix at 1,000 clients (DB ~72% busy
    without sync), ``{"plain" | "sync": (spec, point)}``, under MyISAM
    write priority and entity container locks."""
    app = BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))
    plain = ExperimentSpec(
        config=WS_SERVLET_DB, mix=ORDERING_MIX, clients=1000, ramp_up=60,
        measure=60, ramp_down=5, profile=profile_application(
            app, app.deploy_servlet(), "servlet", repetitions=2))
    sync = replace(plain, config=WS_SERVLET_DB_SYNC, profile=(
        profile_application(app, app.deploy_servlet(sync_locking=True),
                            "servlet_sync", repetitions=2)))
    return {name: (spec, run_experiment(spec))
            for name, spec in (("plain", plain), ("sync", sync))}


def test_lock_wait_accounting_separates_policies(ordering):
    """The ordering mix shows heavy DB lock waiting without sync and
    (much smaller) container waiting with sync -- measured directly."""
    __, plain = ordering["plain"]
    __, sync = ordering["sync"]
    # Non-sync interactions wait longer on database table locks (their
    # explicit spans hold them across round trips); entity-granular
    # container locks cost essentially nothing.
    assert plain.db_lock_wait_per_interaction > \
        1.2 * sync.db_lock_wait_per_interaction
    assert sync.sync_lock_wait_per_interaction < \
        0.01 * plain.db_lock_wait_per_interaction


def test_ablation_write_priority_locks(ordering):
    """MyISAM gives waiting writers priority over new readers, which is
    what lets pending writers choke the read flow under LOCK TABLES.
    With reader-friendly (FIFO) locks the non-sync ordering mix breathes
    noticeably easier near the knee (past saturation the two policies
    are within 2%)."""
    spec, myisam = ordering["plain"]
    fifo = run_experiment(replace(
        spec, sim_costs=SimCosts(db_write_priority=False)))
    assert fifo.throughput_ipm > 1.1 * myisam.throughput_ipm


def test_ablation_sync_lock_granularity(ordering):
    """The (sync) win depends on Java locking being *finer* than table
    locks: per-entity container locks vs whole-table container locks."""
    spec, entity = ordering["sync"]
    table = run_experiment(replace(
        spec, sim_costs=SimCosts(sync_lock_granularity="table")))
    assert entity.throughput_ipm > 1.1 * table.throughput_ipm


def _queries_per_interaction(profile, mix):
    return sum(profile.profile(name).mean_queries() * weight
               for name, weight in mix.items()) / sum(mix.values())


def test_ablation_cmp_store_and_load_modes():
    """Field-level CMP access multiplies short queries (the paper's
    'single value to be read or updated' behaviour) versus row-level."""
    profiles = {}
    for mode in ("row", "field"):
        app = AuctionApp(build_auction_database())
        presentation, __ = app.deploy_ejb(store_mode=mode, load_mode=mode)
        profiles[mode] = profile_application(app, presentation, "ejb", 2)
    mix = app.mix("bidding")
    row, field = (expected_demands(WS_SERVLET_EJB_DB, profiles[mode], mix)
                  for mode in ("row", "field"))
    assert _queries_per_interaction(profiles["field"], mix) > \
        1.5 * _queries_per_interaction(profiles["row"], mix)
    assert field.cpu_seconds["db"] > row.cpu_seconds["db"]


def test_ablation_ipc_cost_sensitivity():
    """The colocated-servlet penalty is IPC: doubling the AJP per-byte
    cost widens the PHP-vs-servlet gap, halving it narrows the gap."""
    profile = get_profiles("auction")["servlet"]
    mix = build_app("auction").mix("bidding")
    half, default, double = (
        expected_demands(WS_SERVLET_DB, profile, mix,
                         ajp=AjpCosts(per_byte=per_byte)).max_throughput()
        for per_byte in (45e-9, 90e-9, 180e-9))
    assert half > default > double


def test_ablation_think_time():
    """TPC-W's 7 s mean think time sets where the curves bend: with half
    the think time, half the clients saturate the same server (MVA)."""
    app = build_app("auction")
    demands = dict(expected_demands(
        WS_SERVLET_DB, get_profiles("auction")["servlet"],
        app.mix("bidding"),
        ssl_interactions=app.SSL_INTERACTIONS).cpu_seconds)
    slow = solve_mva(demands, clients=600, think_time=7.0)
    fast = solve_mva(demands, clients=300, think_time=3.5)
    assert slow.throughput_ipm == pytest.approx(fast.throughput_ipm,
                                                rel=0.02)
