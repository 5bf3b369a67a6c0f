"""Unit tests for the resilience layer: fault plans, the injector,
admission control, client retry/backoff, and availability metrics."""

import random

import pytest

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.faults import (
    AdmissionReject,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    TierDown,
    TransientDbError,
)
from repro.harness.profiles import profile_application
from repro.machine.machine import Machine
from repro.metrics.availability import (
    AvailabilitySampler,
    AvailabilityWindow,
    summarize_failover,
)
from repro.net.lan import Lan
from repro.sim import Interrupt, Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import WS_PHP_DB, WS_SEP_SERVLET_DB
from repro.topology.simulation import SimulatedSite
from repro.web.server import WebServerConfig
from repro.workload.client import ClientPopulation, ClientStats, RetryPolicy
from repro.workload.markov import choose_interaction


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def php_profile(app):
    return profile_application(app, app.deploy_php(), "php", repetitions=2)


@pytest.fixture(scope="module")
def servlet_profile(app):
    return profile_application(app, app.deploy_servlet(), "servlet",
                               repetitions=2)


def _no_dangling_locks(site) -> bool:
    for lock in site._table_locks.values():
        if lock.writer or lock.readers or lock.waiting_writers or \
                lock.waiting_readers:
            return False
    for lock in site._sync_locks.values():
        if lock.writer or lock.readers:
            return False
    return True


# -- FaultPlan -----------------------------------------------------------------


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultPlan((FaultEvent("meteor", "db", 0.0, 1.0),))
    with pytest.raises(ValueError):
        FaultPlan((FaultEvent("crash", "mainframe", 0.0, 1.0),))
    with pytest.raises(ValueError):
        FaultPlan((FaultEvent("crash", "db", -1.0, 1.0),))
    with pytest.raises(ValueError):
        FaultPlan((FaultEvent("crash", "db", 0.0, -1.0),))
    with pytest.raises(ValueError):
        FaultPlan((FaultEvent("lan_degrade", at=0.0, duration=1.0,
                              factor=1.5),))


def test_fault_plan_builders_and_algebra():
    plan = FaultPlan.single_crash("db", at=10.0, duration=5.0) + \
        FaultPlan.db_conn_glitch(at=20.0, duration=2.0)
    assert len(plan.events) == 2
    assert plan.horizon() == 22.0
    assert bool(plan)
    assert not FaultPlan()
    assert FaultPlan().horizon() == 0.0


def test_stochastic_plan_is_reproducible_and_bounded():
    a = FaultPlan.stochastic(random.Random(7), horizon=1000.0,
                             tiers=("db", "servlet"), mtbf=200.0, mttr=20.0)
    b = FaultPlan.stochastic(random.Random(7), horizon=1000.0,
                             tiers=("db", "servlet"), mtbf=200.0, mttr=20.0)
    assert a.events == b.events
    assert a.events  # MTBF 200 over 1000 s: effectively always >= 1 crash
    for event in a.events:
        assert 0.0 <= event.at < 1000.0
        assert event.clears_at <= 1000.0 + 1e-9


# -- crash mechanics -----------------------------------------------------------


def test_crash_aborts_inflight_and_releases_locks(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    injector = FaultInjector(
        sim, site, FaultPlan.single_crash("db", at=0.004, duration=0.1))
    injector.start()

    outcomes = []

    def attempt(i):
        try:
            yield from site.perform(i, "buy_confirm", random.Random(i))
            outcomes.append("ok")
        except Interrupt:
            outcomes.append("aborted")
        except TierDown:
            outcomes.append("refused")

    procs = [sim.spawn(attempt(i)) for i in range(4)]
    sim.run()
    assert all(p.finished for p in procs)
    assert len(outcomes) == 4
    assert "aborted" in outcomes or "refused" in outcomes
    assert _no_dangling_locks(site)
    assert site.web_processes.in_use == 0
    assert not site.inflight_processes()
    assert [entry[3] for entry in injector.log] == ["down", "up"]


def test_down_tier_fails_fast(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    site.mark_down("db")
    outcomes = []

    def attempt():
        try:
            yield from site.perform(0, "product_detail", random.Random(1))
            outcomes.append("ok")
        except TierDown as exc:
            outcomes.append(exc.machine)

    sim.spawn(attempt())
    sim.run()
    assert outcomes == ["db"]
    assert sim.now < 0.1          # an error, not a hang
    assert site.interactions_done == 0
    site.mark_up("db")
    sim.spawn(attempt())
    sim.run()
    assert outcomes[-1] == "ok"


def test_mark_down_unknown_machine_raises(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    with pytest.raises(KeyError):
        site.mark_down("servlet")   # WsPhp-DB has no servlet machine


def test_crash_of_absent_tier_is_contained(php_profile):
    """Crashing the dedicated servlet machine cannot touch WsPhp-DB."""
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    injector = FaultInjector(
        sim, site, FaultPlan.single_crash("servlet", at=0.001, duration=1.0))
    injector.start()
    procs = [sim.spawn(site.perform(i, "product_detail", random.Random(i)))
             for i in range(3)]
    sim.run()
    assert all(p.finished for p in procs)
    assert site.interactions_done == 3
    assert injector.log == [(0.001, "crash", "servlet", "skipped")]


def test_crash_of_own_tier_is_not_contained(servlet_profile):
    """The other side: a dedicated servlet machine takes the goodput of
    its configuration down with it."""
    retry = RetryPolicy(deadline=6.0, max_retries=3, backoff_base=0.25,
                        backoff_cap=2.0, retry_budget=40)
    __, __, population, sampler = _drive_population(
        servlet_profile, WS_SEP_SERVLET_DB,
        FaultPlan.single_crash("servlet", at=20.0, duration=20.0),
        until=60.0, retry=retry)
    summary = summarize_failover(
        WS_SEP_SERVLET_DB.name, "servlet", sampler.windows, 20.0, 40.0,
        population.stats,
        contained="servlet" not in WS_SEP_SERVLET_DB.machine_names())
    assert not summary.contained
    assert summary.during_over_pre < 0.5


def test_db_conn_glitch_aborts_queries_transiently(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    FaultInjector(sim, site,
                  FaultPlan.db_conn_glitch(at=0.0, duration=1.0)).start()
    outcomes = []

    def attempt(delay):
        yield delay
        try:
            yield from site.perform(0, "product_detail", random.Random(3))
            outcomes.append("ok")
        except TransientDbError:
            outcomes.append("glitch")

    sim.spawn(attempt(0.01))
    sim.spawn(attempt(1.5))
    sim.run()
    assert outcomes == ["glitch", "ok"]
    assert _no_dangling_locks(site)


def test_lan_degrade_scales_transfer_time():
    sim = Simulator()
    lan = Lan(sim, latency=0.0)
    a, b = Machine(sim, "a"), Machine(sim, "b")
    lan.attach(a)
    lan.attach(b)
    durations = []

    def move():
        start = sim.now
        yield from lan.transfer(a, b, 125_000)   # 10 ms at 100 Mb/s
        durations.append(sim.now - start)

    sim.spawn(move())
    sim.run()
    lan.set_bandwidth_factor(0.1)
    sim.spawn(move())
    sim.run()
    lan.set_bandwidth_factor(1.0)
    sim.spawn(move())
    sim.run()
    assert durations[0] == pytest.approx(0.02)       # tx + rx serialised
    assert durations[1] == pytest.approx(0.2)
    assert durations[2] == pytest.approx(durations[0])


# -- admission control ---------------------------------------------------------


def test_admission_control_sheds_load(php_profile):
    sim = Simulator()
    site = SimulatedSite(
        sim, WS_PHP_DB, php_profile,
        web_config=WebServerConfig(max_processes=1, accept_queue_limit=1))
    outcomes = []

    def attempt(i):
        try:
            yield from site.perform(i, "product_detail", random.Random(i))
            outcomes.append("ok")
        except AdmissionReject:
            outcomes.append("rejected")

    procs = [sim.spawn(attempt(i)) for i in range(6)]
    sim.run()
    assert all(p.finished for p in procs)
    assert site.rejections > 0
    assert outcomes.count("rejected") == site.rejections
    assert outcomes.count("ok") == site.interactions_done
    assert site.interactions_done + site.rejections == 6
    assert site.web_processes.in_use == 0
    assert site.web_processes.queue_length == 0


def test_unbounded_accept_queue_never_rejects(php_profile):
    """Default config (accept_queue_limit=None) keeps the paper's
    queue-forever Apache behaviour."""
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile,
                         web_config=WebServerConfig(max_processes=1))
    procs = [sim.spawn(site.perform(i, "product_detail", random.Random(i)))
             for i in range(6)]
    sim.run()
    assert all(p.finished for p in procs)
    assert site.interactions_done == 6
    assert site.rejections == 0


# -- client retry / backoff / deadline -----------------------------------------


def _drive_population(profile, config, plan, n_clients=5, until=60.0,
                      retry=None, window=5.0):
    sim = Simulator()
    site = SimulatedSite(sim, config, profile)
    app_mix = {"product_detail": 0.5, "home": 0.3, "buy_confirm": 0.2}
    population = ClientPopulation(
        sim, n_clients, app_mix, site, RngStreams(11), choose_interaction,
        retry=retry)
    FaultInjector(sim, site, plan).start()
    population.start()
    population.begin_measurement()
    sampler = AvailabilitySampler(sim, population, interval=window)
    sampler.start()
    sim.run(until=until)
    return sim, site, population, sampler


def test_clients_retry_through_outage_and_recover(php_profile):
    plan = FaultPlan.single_crash("db", at=20.0, duration=10.0)
    retry = RetryPolicy(deadline=6.0, max_retries=3, backoff_base=0.25,
                        backoff_cap=2.0, retry_budget=40)
    sim, site, population, sampler = _drive_population(
        php_profile, WS_PHP_DB, plan, until=60.0, retry=retry)
    stats = population.stats
    assert stats.interactions_completed > 0
    assert stats.rejections + stats.aborts > 0   # the outage was felt
    assert stats.retries > 0                     # and retried against
    # The outage windows saw errors; the tail windows saw service again.
    outage = [w for w in sampler.windows if w.start >= 20.0 and w.end <= 30.0]
    tail = [w for w in sampler.windows if w.start >= 40.0]
    assert sum(w.errors for w in outage) > 0
    assert sum(w.completions for w in tail) > 0
    assert _no_dangling_locks(site)


def test_retry_budget_bounds_retries(php_profile):
    # Site down for the whole run: every interaction fails; with a
    # budget of 3 the session may spend exactly 3 retries in total.
    plan = FaultPlan.single_crash("db", at=0.0, duration=500.0)
    retry = RetryPolicy(deadline=5.0, max_retries=5, backoff_base=0.1,
                        backoff_cap=0.5, retry_budget=3)
    __, __, population, __ = _drive_population(
        php_profile, WS_PHP_DB, plan, n_clients=1, until=120.0, retry=retry)
    stats = population.stats
    assert stats.interactions_completed == 0
    assert stats.retries == 3
    assert stats.abandoned > 1


def test_deadline_times_out_hung_attempt(servlet_profile):
    """A request stuck behind a crashed-but-not-detected dependency is
    cut off by the client deadline, not waited on forever."""
    sim = Simulator()
    site = SimulatedSite(sim, WS_SEP_SERVLET_DB, servlet_profile)
    population = ClientPopulation(
        sim, 1, {"product_detail": 1.0}, site, RngStreams(5),
        choose_interaction,
        retry=RetryPolicy(deadline=2.0, max_retries=0, backoff_base=0.1))
    # Hold the web process pool so the attempt queues forever.
    for __ in range(site.web_processes.capacity):
        assert site.web_processes.try_acquire()
    population.start()
    population.begin_measurement()
    sim.run(until=30.0)
    assert population.stats.timeouts >= 2
    assert population.stats.interactions_completed == 0
    # Timed-out attempts withdrew their queued acquire requests: at most
    # the one currently in-flight attempt may still be waiting.
    assert site.web_processes.queue_length <= 1


def test_client_stats_error_accounting():
    stats = ClientStats()
    stats.record_error("timeout")
    stats.record_error("rejection")
    stats.record_error("abort")
    stats.record_error("abort")
    assert (stats.timeouts, stats.rejections, stats.aborts) == (1, 1, 2)
    assert stats.errors == 4


def test_population_stop_drains_to_quiescence(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    population = ClientPopulation(
        sim, 4, {"product_detail": 1.0}, site, RngStreams(2),
        choose_interaction, retry=RetryPolicy(deadline=5.0))
    population.start()
    sim.run(until=30.0)
    population.stop()
    sim.run()
    assert all(p.finished for p in population._procs)
    assert not site.inflight_processes()
    assert _no_dangling_locks(site)
    assert sim.quiescent()


# -- availability metrics ------------------------------------------------------


def test_availability_window_goodput():
    window = AvailabilityWindow(start=10.0, end=20.0, completions=30,
                                timeouts=1, aborts=2, rejections=3)
    assert window.goodput_ipm == pytest.approx(180.0)
    assert window.errors == 6


def test_summarize_failover_recovery_math():
    def window(i, completions):
        return AvailabilityWindow(start=i * 10.0, end=(i + 1) * 10.0,
                                  completions=completions)
    # Steady at 100/window, dead during the fault, limping at 40, then
    # back at 95 from t=60.
    windows = [window(0, 100), window(1, 100), window(2, 100),  # pre
               window(3, 0), window(4, 0),                      # fault 30-50
               window(5, 40), window(6, 95), window(7, 100)]    # post
    summary = summarize_failover("C1", "db", windows,
                                 fault_start=30.0, fault_end=50.0,
                                 stats=ClientStats())
    assert summary.pre_goodput_ipm == pytest.approx(600.0)
    assert summary.during_goodput_ipm == pytest.approx(0.0)
    assert summary.post_goodput_ipm == pytest.approx((40 + 95 + 100) * 2.0)
    # First window back at >= 90% of pre ends at t=70 -> 20 s to recover.
    assert summary.recovery_time_s == pytest.approx(20.0)
    assert not summary.contained


def test_summarize_failover_never_recovers():
    windows = [AvailabilityWindow(0.0, 10.0, completions=100),
               AvailabilityWindow(10.0, 20.0, completions=0),
               AvailabilityWindow(20.0, 30.0, completions=10)]
    summary = summarize_failover("C1", "db", windows, 10.0, 20.0,
                                 stats=ClientStats())
    assert summary.recovery_time_s is None
    assert summary.during_over_pre == pytest.approx(0.0)
    assert summary.post_over_pre == pytest.approx(0.1)
