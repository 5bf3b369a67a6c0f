"""Overload layer: open-loop arrivals, graceful degradation, circuit
breakers, and the open-loop experiment runner."""

import random
from dataclasses import asdict, replace

import pytest

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.faults.errors import (
    BackpressureError,
    CircuitOpenError,
    TransientDbError,
)
from repro.harness.experiment import ExperimentSpec, build_site, run_experiment
from repro.harness.profiles import profile_application
from repro.metrics.slo import SloSeries, SloSpec
from repro.overload import (
    AbandonmentSpec,
    BreakerPolicy,
    CircuitBreaker,
    DegradationPolicy,
    DiurnalProfile,
    FlashCrowdProfile,
    MmppProfile,
    OpenLoopPopulation,
    OverloadSpec,
    PoissonProfile,
    ThinkTimeModel,
    install_degradation,
)
from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import WS_PHP_DB
from repro.topology.simulation import SimulatedSite
from repro.workload.markov import choose_interaction


@pytest.fixture(scope="module")
def app():
    return BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))


@pytest.fixture(scope="module")
def php_profile(app):
    return profile_application(app, app.deploy_php(), "php", repetitions=2)


# -- arrival profiles ---------------------------------------------------------

def _gaps(profile, seed, n):
    rng = random.Random(seed)
    it = profile.arrivals(rng)
    return [next(it) for __ in range(n)]


def test_poisson_arrivals_deterministic_under_seed():
    profile = PoissonProfile(rate=3.0)
    assert _gaps(profile, 7, 100) == _gaps(profile, 7, 100)
    assert _gaps(profile, 7, 100) != _gaps(profile, 8, 100)
    mean = sum(_gaps(profile, 7, 4000)) / 4000
    assert 0.8 / 3.0 < mean < 1.2 / 3.0


def test_flash_crowd_rate_shape():
    profile = FlashCrowdProfile(base_rate=2.0, burst_start=10.0,
                                burst_duration=5.0, multiplier=4.0)
    assert profile.peak_rate == 8.0
    assert profile.burst_end == 15.0
    assert profile.rate_at(9.9) == 2.0
    assert profile.rate_at(10.0) == 8.0
    assert profile.rate_at(14.9) == 8.0
    assert profile.rate_at(15.0) == 2.0


def test_flash_crowd_burst_concentrates_arrivals():
    profile = FlashCrowdProfile(base_rate=2.0, burst_start=30.0,
                                burst_duration=30.0, multiplier=8.0)
    rng = random.Random(11)
    t, before, during = 0.0, 0, 0
    for gap in profile.arrivals(rng):
        t += gap
        if t >= 60.0:
            break
        if t < 30.0:
            before += 1
        else:
            during += 1
    # Equal-length spans at 2/s vs 16/s: the burst must dominate.
    assert during > 3 * before


def test_mmpp_and_diurnal_deterministic():
    mmpp = MmppProfile(calm_rate=1.0, busy_rate=10.0, calm_dwell_mean=5.0,
                       busy_dwell_mean=5.0)
    assert _gaps(mmpp, 3, 200) == _gaps(mmpp, 3, 200)
    assert all(g > 0 for g in _gaps(mmpp, 3, 200))
    diurnal = DiurnalProfile(mean_rate=4.0, amplitude=0.5, period=60.0)
    assert _gaps(diurnal, 3, 200) == _gaps(diurnal, 3, 200)
    assert diurnal.peak_rate == 6.0
    assert diurnal.rate_at(0.0) == pytest.approx(4.0)
    assert diurnal.rate_at(15.0) == pytest.approx(6.0)


@pytest.mark.parametrize("bad", [
    lambda: PoissonProfile(rate=0.0),
    lambda: PoissonProfile(rate=-1.0),
    lambda: FlashCrowdProfile(base_rate=0.0, burst_start=1, burst_duration=1),
    lambda: FlashCrowdProfile(base_rate=1.0, burst_start=-1,
                              burst_duration=1),
    lambda: FlashCrowdProfile(base_rate=1.0, burst_start=1,
                              burst_duration=0),
    lambda: FlashCrowdProfile(base_rate=1.0, burst_start=1,
                              burst_duration=1, multiplier=0.5),
    lambda: MmppProfile(calm_rate=0.0, busy_rate=1.0),
    lambda: MmppProfile(calm_rate=1.0, busy_rate=1.0, busy_dwell_mean=0.0),
    lambda: DiurnalProfile(mean_rate=0.0),
    lambda: DiurnalProfile(mean_rate=1.0, amplitude=1.5),
    lambda: DiurnalProfile(mean_rate=1.0, period=0.0),
])
def test_arrival_profile_validation(bad):
    with pytest.raises(ValueError):
        bad()


# -- think times and abandonment ----------------------------------------------

def test_think_time_models_draw_positive_and_capped():
    rng = random.Random(5)
    for dist in ("exponential", "lognormal", "pareto"):
        model = ThinkTimeModel(distribution=dist, mean=7.0, cap=30.0)
        draws = [model.draw(rng) for __ in range(2000)]
        assert all(0 < d <= 30.0 for d in draws)
        # All three are parameterized by the mean; with the cap only
        # shaving the far tail the sample mean stays in the ballpark.
        assert 3.0 < sum(draws) / len(draws) < 11.0


def test_pareto_think_time_is_heavier_tailed_than_exponential():
    rng = random.Random(5)
    expo = ThinkTimeModel(distribution="exponential", mean=7.0)
    pareto = ThinkTimeModel(distribution="pareto", mean=7.0, alpha=1.5)
    expo_tail = sum(expo.draw(rng) > 60.0 for __ in range(5000))
    pareto_tail = sum(pareto.draw(rng) > 60.0 for __ in range(5000))
    assert pareto_tail > expo_tail


@pytest.mark.parametrize("bad", [
    lambda: ThinkTimeModel(distribution="uniform"),
    lambda: ThinkTimeModel(mean=0.0),
    lambda: ThinkTimeModel(sigma=0.0),
    lambda: ThinkTimeModel(alpha=1.0),
    lambda: ThinkTimeModel(cap=0.0),
    lambda: AbandonmentSpec(patience=0.0),
    lambda: AbandonmentSpec(probability=0.0),
    lambda: AbandonmentSpec(probability=1.5),
    lambda: OverloadSpec(session_mean=0.0),
    lambda: OverloadSpec(max_concurrent_sessions=0),
])
def test_think_abandonment_overload_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_overload_spec_rejects_non_profile():
    with pytest.raises(TypeError):
        OverloadSpec(arrivals=object())


# -- circuit breaker (simulation-side) ----------------------------------------

class _FakeSim:
    def __init__(self):
        self.now = 0.0


def _tripped_breaker(policy=None):
    sim = _FakeSim()
    breaker = CircuitBreaker(sim, policy or BreakerPolicy(
        window=10, min_calls=4, trip_threshold=0.5, reset_timeout=5.0,
        half_open_probes=2))
    for __ in range(2):
        breaker.record_success()
    for __ in range(4):
        breaker.record_failure()
    return sim, breaker


def test_breaker_trips_on_failure_ratio():
    sim, breaker = _tripped_breaker()
    assert breaker.state == breaker.OPEN
    assert breaker.trips == 1
    assert not breaker.allow()
    assert breaker.fast_fails == 1


def test_breaker_ignores_failures_below_min_calls():
    breaker = CircuitBreaker(_FakeSim(), BreakerPolicy(
        window=10, min_calls=5, trip_threshold=0.5))
    for __ in range(4):
        breaker.record_failure()
    assert breaker.state == breaker.CLOSED
    assert breaker.allow()


def test_breaker_half_open_probe_success_closes():
    sim, breaker = _tripped_breaker()
    sim.now = 4.9
    assert not breaker.allow()          # still open before the timeout
    sim.now = 5.0
    assert breaker.allow()              # first probe slot
    assert breaker.state == breaker.HALF_OPEN
    assert breaker.allow()              # second probe slot
    assert not breaker.allow()          # slots exhausted
    breaker.record_success()
    assert breaker.state == breaker.CLOSED
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    sim, breaker = _tripped_breaker()
    sim.now = 6.0
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == breaker.OPEN
    assert breaker.trips == 2
    # The open clock restarted at the failed probe.
    sim.now = 10.9
    assert not breaker.allow()
    sim.now = 11.0
    assert breaker.allow()


@pytest.mark.parametrize("kwargs", [
    dict(window=0), dict(min_calls=0), dict(trip_threshold=0.0),
    dict(trip_threshold=1.5), dict(reset_timeout=0.0),
    dict(half_open_probes=0),
])
def test_breaker_policy_validation(kwargs):
    with pytest.raises(ValueError):
        BreakerPolicy(**kwargs)


# -- circuit breaker (functional driver wrapper) ------------------------------

class _FlakyConnection:
    """Stands in for a db connection; fails while ``broken`` is set."""

    def __init__(self):
        self.broken = False
        self.calls = 0
        self.closed = False

    def execute(self, sql, params=()):
        self.calls += 1
        if self.broken:
            raise TransientDbError("boom")
        return "ok"

    @property
    def last_insert_id(self):
        return None

    def close(self):
        self.closed = True


def test_circuit_breaker_connection_trips_and_probes():
    from repro.db.driver import CircuitBreakerConnection
    inner = _FlakyConnection()
    conn = CircuitBreakerConnection(inner, window=8, min_calls=4,
                                    trip_threshold=0.5)
    assert conn.execute("SELECT 1") == "ok"
    inner.broken = True
    # After the 3rd failure the ring holds [ok, fail, fail, fail]:
    # min_calls reached and the failure fraction is past the threshold.
    for __ in range(3):
        with pytest.raises(TransientDbError):
            conn.execute("SELECT 1")
    assert conn.open
    calls = inner.calls
    with pytest.raises(CircuitOpenError):
        conn.execute("SELECT 1")
    assert inner.calls == calls         # fail-fast: inner never touched
    assert conn.fast_fails == 1
    # A failed probe keeps it open; a successful one closes it.
    with pytest.raises(TransientDbError):
        conn.probe("SELECT 1")
    assert conn.open
    inner.broken = False
    assert conn.probe("SELECT 1") == "ok"
    assert not conn.open
    assert conn.execute("SELECT 1") == "ok"


@pytest.mark.parametrize("kwargs", [
    dict(window=0), dict(min_calls=0), dict(trip_threshold=0.0),
    dict(trip_threshold=1.1),
])
def test_circuit_breaker_connection_validation(kwargs):
    from repro.db.driver import CircuitBreakerConnection
    with pytest.raises(ValueError):
        CircuitBreakerConnection(_FlakyConnection(), **kwargs)


# -- degradation policy + installation ----------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(container_concurrency=0), dict(container_backlog=-1),
    dict(db_concurrency=0), dict(db_backlog=-1),
    dict(shed_queue_threshold=0),
])
def test_degradation_policy_validation(kwargs):
    with pytest.raises(ValueError):
        DegradationPolicy(**kwargs)


def test_open_breaker_degrades_browses_but_not_orders(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    state = install_degradation(site, DegradationPolicy())
    state.breaker._trip()               # database is misbehaving

    sim.spawn(site.perform(0, "home", random.Random(1)))
    sim.run()
    assert state.degraded_served == 1
    assert site.interactions_done == 1  # degraded replies count as served

    # Order-class interactions keep the full path and hit the open
    # breaker at the driver instead of getting a stale page.
    errors = []

    def order():
        try:
            yield from site.perform(1, "shopping_cart", random.Random(2))
        except CircuitOpenError as exc:
            errors.append(exc)

    state.breaker._trip()               # re-arm (time advanced past reset)
    sim.spawn(order())
    sim.run()
    assert len(errors) == 1
    assert state.degraded_served == 1


def test_container_gate_sheds_with_busy_page(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    policy = DegradationPolicy(container_concurrency=1, container_backlog=0,
                               db_concurrency=None, breaker=None,
                               shed_queue_threshold=None)
    state = install_degradation(site, policy)
    rejected = []

    def client(i):
        try:
            yield from site.perform(i, "product_detail", random.Random(i))
        except BackpressureError as exc:
            rejected.append(exc)

    for i in range(6):
        sim.spawn(client(i))
    sim.run()
    assert rejected
    assert all(exc.tier == "servlet" for exc in rejected)
    assert state.backpressure_rejects["servlet"] == len(rejected)
    assert site.interactions_done == 6 - len(rejected)
    assert state.container_gate.in_use == 0
    assert state.container_gate.queue_length == 0
    assert sim.quiescent()


def test_db_gate_backpressure(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    policy = DegradationPolicy(container_concurrency=None,
                               db_concurrency=1, db_backlog=0,
                               breaker=None, shed_queue_threshold=None)
    state = install_degradation(site, policy)
    rejected = []

    def client(i):
        try:
            yield from site.perform(i, "best_sellers", random.Random(i))
        except BackpressureError as exc:
            rejected.append(exc)

    for i in range(6):
        sim.spawn(client(i))
    sim.run()
    assert rejected
    assert all(exc.tier == "db" for exc in rejected)
    assert state.backpressure_rejects["db"] == len(rejected)
    assert state.db_gate.in_use == 0
    assert state.db_gate.queue_length == 0


def test_all_levers_disabled_changes_nothing(php_profile):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    state = install_degradation(site, DegradationPolicy(
        container_concurrency=None, db_concurrency=None, breaker=None,
        shed_queue_threshold=None))
    assert state.container_gate is None
    assert state.db_gate is None
    assert state.breaker is None
    sim.spawn(site.perform(0, "home", random.Random(1)))
    sim.spawn(site.perform(1, "buy_confirm", random.Random(2)))
    sim.run()
    assert site.interactions_done == 2
    assert state.degraded_served == 0


def test_degradation_on_clustered_site(php_profile):
    from repro.cluster.site import ClusteredSite
    from repro.topology.spec import clustered
    sim = Simulator()
    config = clustered(WS_PHP_DB, web=2, db_replicas=1)
    site = ClusteredSite(sim, config, php_profile, rng=RngStreams(4))
    state = install_degradation(site, DegradationPolicy())
    state.breaker._trip()
    sim.spawn(site.perform(0, "home", random.Random(1)))
    sim.run()
    # Cluster routing (ClusteredSite._dispatch) still runs in front
    # of the interposed *front* seam.
    assert state.degraded_served == 1
    assert site.interactions_done == 1


# -- open-loop population -----------------------------------------------------

def _open_loop_run(spec, php_profile, mix, seed=13, until=30.0, warmup=5.0):
    sim = Simulator()
    site = SimulatedSite(sim, WS_PHP_DB, php_profile)
    series = SloSeries(sim, SloSpec(window=1.0))
    population = OpenLoopPopulation(
        sim, spec, mix, site, RngStreams(seed), choose_interaction,
        slo=series)
    population.start()
    sim.run(until=warmup)
    population.begin_measurement()
    sim.run(until=until)
    stats = population.end_measurement()
    population.stop()
    sim.run()
    assert all(p.finished for p in population._procs), "stuck session"
    assert not site.inflight_processes()
    assert sim.quiescent()
    return stats, series, sim.events_processed


def test_open_loop_bit_identical_under_pinned_seed(app, php_profile):
    spec = OverloadSpec(arrivals=PoissonProfile(rate=2.0),
                        think=ThinkTimeModel(mean=1.0), session_mean=10.0)
    mix = app.mix("shopping")
    one = _open_loop_run(spec, php_profile, mix)
    two = _open_loop_run(spec, php_profile, mix)
    assert asdict(one[0]) == asdict(two[0])
    assert one[2] == two[2]             # kernel event counts match
    w1 = [(w.completions, w.arrivals, w.p95) for w in one[1].windows()]
    w2 = [(w.completions, w.arrivals, w.p95) for w in two[1].windows()]
    assert w1 == w2
    assert one[0].interactions_completed > 0
    assert sum(w.arrivals for w in one[1].windows()) > 0


def test_abandonment_ends_sessions(app, php_profile):
    spec = OverloadSpec(
        arrivals=PoissonProfile(rate=2.0), think=ThinkTimeModel(mean=1.0),
        session_mean=60.0,
        abandonment=AbandonmentSpec(patience=1e-6, probability=1.0))
    stats, __, __ = _open_loop_run(spec, php_profile, app.mix("shopping"))
    # Everyone's patience is sub-microsecond and the giving-up
    # probability is 1: every measured session abandons after its first
    # interaction, so abandonments track interactions one-for-one.
    assert stats.sessions_abandoned > 0
    assert stats.sessions_abandoned == stats.interactions_started


def test_session_cap_turns_arrivals_away(app, php_profile):
    spec = OverloadSpec(arrivals=PoissonProfile(rate=5.0),
                        think=ThinkTimeModel(mean=2.0), session_mean=120.0,
                        max_concurrent_sessions=1)
    stats, __, __ = _open_loop_run(spec, php_profile, app.mix("shopping"))
    assert stats.turned_away > 0


# -- runner + ExperimentSpec integration --------------------------------------

def test_run_open_loop_point(app, php_profile):
    spec = ExperimentSpec(
        config=WS_PHP_DB, profile=php_profile, mix=app.mix("shopping"),
        clients=0, ramp_up=3.0, measure=15.0, ramp_down=2.0,
        overload=OverloadSpec(arrivals=PoissonProfile(rate=2.0),
                              think=ThinkTimeModel(mean=1.0),
                              session_mean=10.0),
        degradation=DegradationPolicy(), slo=SloSpec(window=1.0))
    point = run_experiment(spec)
    assert point.throughput_ipm > 0
    assert point.slo.goodput_per_s > 0
    assert point.slo.windows_total > 0
    assert point.slo_windows
    assert point.overload_stats.sessions_started > 0
    assert point.degradation is not None
    assert point.kernel_events > 0


def test_run_open_loop_deterministic(app, php_profile):
    spec = ExperimentSpec(
        config=WS_PHP_DB, profile=php_profile, mix=app.mix("shopping"),
        clients=0, ramp_up=2.0, measure=10.0, ramp_down=1.0,
        overload=OverloadSpec(arrivals=PoissonProfile(rate=2.0),
                              think=ThinkTimeModel(mean=1.0),
                              session_mean=10.0))
    one, two = run_experiment(spec), run_experiment(spec)
    assert asdict(one) == asdict(two)
    assert one.kernel_events == two.kernel_events


def _shadowed_methods(site):
    """Instance attributes hiding a method of the site's class."""
    return [name for name in vars(site)
            if callable(getattr(type(site), name, None))]


def test_closed_loop_leaves_site_unwrapped(php_profile):
    """Without a policy every seam is bound to the mechanism itself and
    nothing on the instance shadows a method of its class -- the
    degradation layer adds zero frames, zero RNG, zero events.  With
    one, the guard sits in front of each mechanism."""
    spec = ExperimentSpec(config=WS_PHP_DB, profile=php_profile,
                          mix={"home": 1.0}, clients=1)
    site = build_site(Simulator(), spec)
    assert site._front == site._perform
    assert site._generate == site._run_php
    assert site._db_query == site._db_statement
    assert not hasattr(site, "degradation")
    assert not _shadowed_methods(site)

    guarded = build_site(Simulator(),
                         replace(spec, degradation=DegradationPolicy()))
    state = guarded.degradation
    assert guarded._front == state.front
    assert state.next_front == guarded._perform
    assert guarded._generate == state.generate
    assert state.next_generate == guarded._run_php
    assert guarded._db_query == state.db_query
    assert state.next_db_query == guarded._db_statement
    assert not _shadowed_methods(guarded)
