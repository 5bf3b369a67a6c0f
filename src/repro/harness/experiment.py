"""Experiment execution: ramp-up / measurement / ramp-down, and sweeps.

The measurement methodology follows the paper (§4.5): the system runs a
ramp-up phase to reach steady state, a measurement phase during which
throughput and sysstat samples are collected, and a ramp-down phase so
pending requests drain while measurement is already closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.harness.profiles import AppProfile
from repro.metrics.report import (
    ConfigurationSeries,
    CpuUtilization,
    ExperimentReport,
    ThroughputPoint,
)
from repro.metrics.sampler import SysstatSampler
from repro.metrics.slo import (
    SloSeries,
    SloSpec,
    percentile,
    select_stable_windows,
    summarize_slo,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import Configuration
from repro.topology.simulation import SimCosts, SimulatedSite
from repro.web.server import WebServerConfig
from repro.workload.client import ClientPopulation, RetryPolicy, ThinkTimeSpec
from repro.workload.markov import choose_interaction


@dataclass
class ExperimentSpec:
    """Everything needed to run one (configuration, mix, clients) point."""

    config: Configuration
    profile: AppProfile
    mix: Dict[str, float]
    clients: int
    ramp_up: float = 60.0
    measure: float = 240.0
    ramp_down: float = 10.0
    think: ThinkTimeSpec = field(default_factory=ThinkTimeSpec)
    seed: int = 42
    ssl_interactions: frozenset = frozenset()
    sim_costs: Optional[SimCosts] = None
    sample_interval: float = 2.0
    # When set (a dict interaction -> seconds), the returned point carries
    # a WIRT compliance report over the measurement window.
    wirt_limits: Optional[Dict[str, float]] = None
    # Resilience (repro.faults): an optional crash/glitch schedule, a
    # client timeout/retry policy, and the web server's functional
    # config (admission control lives there).  All default to the
    # steady-state behaviour; run_experiment is unchanged without them.
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    web_config: Optional[WebServerConfig] = None
    # Which application the profile belongs to.  Optional; when set, the
    # parallel runner ships specs without the (large) profile and
    # rehydrates it from each worker's cache (repro.harness.parallel).
    app_name: Optional[str] = None
    # Request-level tracing (repro.obs).  Off by default: the simulation
    # then runs the exact untraced hot path.  When on, the returned
    # point carries a ``bottleneck`` verdict and a ``tracer`` attribute
    # holding the full span aggregates.
    trace: bool = False
    # Overload resilience (repro.overload), all opt-in and typed loosely
    # so the package is only imported when actually used:
    # ``overload`` -- an OverloadSpec switches the run to the open-loop
    # population (session arrivals instead of a fixed client count;
    # ``clients`` is then ignored); ``degradation`` -- a
    # DegradationPolicy installs bounded tier queues, the DB circuit
    # breaker and priority shedding on the site (works for closed-loop
    # runs too); ``slo`` -- an SloSpec: the point records the windowed
    # SLO series over its measurement, closed loop or open (open-loop
    # runs default to SloSpec() when unset); a failover run reads its
    # goodput dip and recovery off the same windows.
    overload: Optional[object] = None
    degradation: Optional[object] = None
    slo: Optional[object] = None

    def scaled(self, factor: float) -> "ExperimentSpec":
        """Shrink/grow phase durations (tests shrink points with a
        factor < 1)."""
        return replace(self, ramp_up=self.ramp_up * factor,
                       measure=self.measure * factor,
                       ramp_down=self.ramp_down * factor)


@dataclass(frozen=True)
class Phases:
    """Experiment phase durations (virtual seconds)."""

    ramp_up: float
    measure: float
    ramp_down: float


def point_spec(app_name: str, mix_name: str, config: Configuration,
               clients: int, phases: Phases, seed: int = 42,
               **overrides) -> ExperimentSpec:
    """The one way (app, mix, configuration, clients, phases, seed)
    becomes a runnable point: the app and its profiles come from the
    per-process caches, and the spec carries ``app_name`` so
    ``run_points`` can ship it to a worker without the profile.
    ``overrides`` are further :class:`ExperimentSpec` fields."""
    from repro.apps import build_app
    from repro.harness.profiles import get_profiles
    app = build_app(app_name)
    return ExperimentSpec(
        config=config,
        profile=get_profiles(app_name)[config.profile_flavor],
        mix=app.mix(mix_name), clients=clients,
        ramp_up=phases.ramp_up, measure=phases.measure,
        ramp_down=phases.ramp_down, seed=seed,
        ssl_interactions=app.SSL_INTERACTIONS, app_name=app_name,
        **overrides)


def build_site(sim: Simulator, spec: ExperimentSpec) -> SimulatedSite:
    """The site for a spec, composed in a fixed order (DESIGN.md "How a
    site is composed"): the database tier the configuration's topology
    axis calls for (none: the plain single-machine-per-tier site), then
    the cache tier, then the degradation guard -- so the guard is
    outermost on every seam, then the cache, then the tier.  The imports
    stay lazy so the paper configurations never load an axis package."""
    kwargs = dict(ssl_interactions=spec.ssl_interactions,
                  costs=spec.sim_costs or SimCosts(),
                  web_config=spec.web_config)
    topo = getattr(spec.config, "cluster", None)
    if topo is None:
        site = SimulatedSite(sim, spec.config, spec.profile, **kwargs)
    elif topo.db_shards > 1:
        from repro.shard.site import ShardedSite
        site = ShardedSite(sim, spec.config, spec.profile,
                           rng=RngStreams(spec.seed), **kwargs)
    else:
        from repro.cluster.site import ClusteredSite
        site = ClusteredSite(sim, spec.config, spec.profile,
                             rng=RngStreams(spec.seed), **kwargs)
    if topo is not None and topo.cache_nodes > 0:
        from repro.cache.site import attach_cache
        attach_cache(site)
    if spec.degradation is not None:
        from repro.overload.degradation import install_degradation
        install_degradation(site, spec.degradation)
    return site


def measure_point(spec: ExperimentSpec, sim: Simulator, site, population):
    """Drive ``population`` through ramp-up / measurement / ramp-down
    and assemble the point: the one place a run is windowed, for the
    closed and the open loop alike.  Returns ``(point, stats)`` with
    ``stats`` the population's measurement-window record.  An open loop
    is stopped before ramp-down: unlike closed-loop clients, sessions
    keep *arriving*, so an un-stopped drain never ends.

    Besides its declared fields the point carries, as undeclared and
    picklable attributes, whatever the spec switched on: ``cache`` /
    ``shard`` (measurement-window deltas), ``degradation`` (whole-run
    tallies, under the names the live state uses) and -- when the spec
    declares an SLO (every open-loop spec does) -- ``slo_windows`` (the
    series of ``slo.window``-second windows over the measurement),
    ``slo`` (its :class:`~repro.metrics.slo.SloSummary` over the stable
    windows) and ``overload_stats`` (``stats``).  ``asdict()``-based
    equality between serial and pooled runs ignores them all;
    ``tracer`` / ``bottleneck_report`` never cross the pool (tracing
    runs serially)."""
    tracer = None
    if spec.trace:
        from repro.obs import Tracer
        tracer = Tracer(sim, window=(spec.ramp_up,
                                     spec.ramp_up + spec.measure))
        sim.tracer = tracer
    sampler = SysstatSampler(sim, site.machines,
                             interval=spec.sample_interval)
    slo_spec = spec.slo
    if slo_spec is None and spec.overload is not None:
        slo_spec = SloSpec()
    if slo_spec is not None:
        population.slo = SloSeries(sim, slo_spec)
    if spec.fault_plan:
        FaultInjector(sim, site, spec.fault_plan).start()
    population.start()
    sampler.start()

    sim.run(until=spec.ramp_up)
    population.begin_measurement()
    db_wait0 = site.db_lock_wait_time
    sync_wait0 = site.sync_lock_wait_time
    cache = site.cache
    cache_stats0 = cache.stats.snapshot() if cache is not None else None
    shard = site.shard_stats
    shard_stats0 = shard.snapshot() if shard is not None else None
    measure_start = sim.now
    sim.run(until=spec.ramp_up + spec.measure)
    stats = population.end_measurement()
    measure_end = sim.now
    cache_stats = (cache.stats.delta(cache_stats0)
                   if cache is not None else None)
    shard_stats = (shard.delta(shard_stats0)
                   if shard is not None else None)
    if spec.overload is not None:
        population.stop()
    sim.run(until=spec.ramp_up + spec.measure + spec.ramp_down)
    # Credit batched CPU slices still in flight so kernel_events matches
    # the per-quantum count.
    sim.finalize_events()

    minutes = (measure_end - measure_start) / 60.0
    throughput = stats.interactions_completed / minutes if minutes else 0.0

    roles = site.role_machines()
    cpu = CpuUtilization(
        web_server=sampler.mean_cpu(roles["web"].name, measure_start,
                                    measure_end),
        database=sampler.mean_cpu(roles["db"].name, measure_start,
                                  measure_end),
        servlet_container=sampler.mean_cpu(
            roles["servlet"].name, measure_start, measure_end)
        if "servlet" in roles else None,
        ejb_server=sampler.mean_cpu(roles["ejb"].name, measure_start,
                                    measure_end)
        if "ejb" in roles else None)
    completed = max(1, stats.interactions_completed)
    point = ThroughputPoint(
        clients=spec.clients, throughput_ipm=throughput, cpu=cpu,
        mean_response_time=stats.mean_response_time(),
        web_nic_tx_mbps=sampler.mean_nic_tx_mbps(
            roles["web"].name, measure_start, measure_end),
        db_lock_wait_per_interaction=(
            (site.db_lock_wait_time - db_wait0) / completed),
        sync_lock_wait_per_interaction=(
            (site.sync_lock_wait_time - sync_wait0) / completed),
        kernel_events=sim.events_processed)
    if cache_stats is not None:
        point.cache = cache_stats
    if shard_stats is not None:
        point.shard = shard_stats
    if slo_spec is not None:
        windows = population.slo.windows(until=measure_end)
        point.slo = summarize_slo(select_stable_windows(windows), slo_spec)
        # The per-window digests aggregate approximately across
        # windows; the population kept every successful latency
        # sample, so make the run-level percentiles exact.
        samples = [t for times in stats.response_times.values()
                   for t in times]
        if samples:
            point.slo.p50 = percentile(samples, 0.50)
            point.slo.p95 = percentile(samples, 0.95)
            point.slo.p99 = percentile(samples, 0.99)
        point.slo_windows = windows
        point.overload_stats = stats
    if spec.degradation is not None:
        point.degradation = site.degradation.tally()
    if tracer is not None:
        from repro.obs import build_report
        tracer.finalize()
        nic = site.web.nic
        nic_util = (point.web_nic_tx_mbps * 1e6) / nic.base_bandwidth
        bottleneck = build_report(
            tracer, configuration=spec.config.name,
            interaction_mix=spec.app_name or spec.profile.app_name,
            clients=spec.clients, web_nic_utilization=nic_util,
            cache_stats=cache_stats)
        point.bottleneck = bottleneck.bottleneck
        point.tracer = tracer
        point.bottleneck_report = bottleneck
    return point, stats


def run_experiment(spec: ExperimentSpec) -> ThroughputPoint:
    """Run one point and report its throughput + peak-window CPU.  A
    spec with ``overload`` set drives an open-loop session population
    (``clients`` is then ignored), any other the closed loop."""
    sim = Simulator()
    site = build_site(sim, spec)
    if spec.overload is not None:
        from repro.overload.openloop import OpenLoopPopulation
        population = OpenLoopPopulation(
            sim, spec.overload, spec.mix, site, RngStreams(spec.seed),
            choose_interaction, retry=spec.retry)
    else:
        population = ClientPopulation(
            sim, spec.clients, spec.mix, site, RngStreams(spec.seed),
            choose_interaction, think=spec.think, retry=spec.retry)
    point, stats = measure_point(spec, sim, site, population)
    if spec.wirt_limits is not None:
        from repro.metrics.wirt import evaluate_wirt
        point.wirt = evaluate_wirt(stats, spec.wirt_limits)
    return point


def run_figure(title: str, workload: str,
               specs_by_config: Dict[str, ExperimentSpec],
               client_counts_by_config: Dict[str, Iterable[int]],
               jobs: Optional[int] = None) -> ExperimentReport:
    """Run every configuration's sweep and assemble a figure report.

    The *whole figure* (every configuration x client count) is one
    ``run_points`` list, so under ``jobs`` > 1 stragglers in one
    configuration overlap with work from another; points come back in
    (configuration, client-count) order.
    """
    from repro.harness.parallel import run_points
    report = ExperimentReport(title=title, workload=workload)
    labeled = [(name, replace(spec, clients=clients))
               for name, spec in specs_by_config.items()
               for clients in client_counts_by_config[name]]
    for name, spec in specs_by_config.items():
        report.series[name] = ConfigurationSeries(spec.config.name)
    points = run_points([spec for __, spec in labeled], jobs)
    for (name, __), point in zip(labeled, points):
        report.series[name].add(point)
    return report
