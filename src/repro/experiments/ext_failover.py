"""Extension experiment: availability under tier crash-and-restart.

The paper compares the six configurations only in steady state; this
experiment asks the production question the placement choice also
decides: *what happens when a machine dies?*  For every configuration it
runs a closed-loop population with client-side deadlines/retries and
admission control, kills one tier mid-measurement, restarts it, and
reports per configuration:

* goodput (successful interactions/minute) before, during, and after
  the outage,
* the error-rate breakdown -- deadline timeouts, mid-flight aborts,
  fast rejections,
* the time from restart until goodput is back to 90% of its pre-fault
  level,
* whether the fault was *contained*: crashing the dedicated servlet
  machine cannot touch ``WsPhp-DB`` or the co-located servlet
  configurations, because no such machine exists there -- tier
  separation trades peak throughput for a larger failure blast radius.

Run:  python -m repro faults [--tier db|servlet|web|ejb]
                             [--scale tiny|quick|full]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.common import HEADLINE_MIXES
from repro.faults.injector import FaultInjector
from repro.faults.plan import TIERS, FaultPlan
from repro.metrics.availability import (
    AvailabilitySampler,
    FailoverReport,
    FailoverSummary,
    summarize_failover,
)
from repro.harness.experiment import (
    ExperimentSpec,
    Phases,
    build_site,
    point_spec,
)
from repro.harness.parallel import parallel_map, rehydrate_spec, strip_spec
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.topology.configs import ALL_CONFIGURATIONS
from repro.web.server import WebServerConfig
from repro.workload.client import ClientPopulation, RetryPolicy
from repro.workload.markov import choose_interaction

DEFAULT_MIXES = HEADLINE_MIXES


@dataclass(frozen=True)
class FailoverScale:
    """Timeline and load for one failover run (virtual seconds)."""

    clients: int          # non-EJB configurations
    ejb_clients: int      # the EJB configuration runs at lower load
    ramp_up: float
    pre: float            # steady measurement before the crash
    outage: float         # how long the tier stays down
    post: float           # measurement after the restart
    window: float         # availability sampling window


SCALES = {
    "tiny": FailoverScale(clients=60, ejb_clients=20, ramp_up=80.0,
                          pre=80.0, outage=40.0, post=160.0, window=10.0),
    "quick": FailoverScale(clients=100, ejb_clients=30, ramp_up=120.0,
                           pre=120.0, outage=60.0, post=240.0, window=10.0),
    "full": FailoverScale(clients=200, ejb_clients=60, ramp_up=300.0,
                          pre=240.0, outage=120.0, post=480.0, window=15.0),
}

# The resilience knobs the availability runs use (the steady-state
# figures keep running without any of this).  The 20 s deadline tracks
# TPC-W's loosest WIRT limits: tight enough to cut off a hung tier,
# loose enough that the bookstore's natural lock-contention tail (and
# the EJB flavor's slow pages) are not killed pre-fault.
RETRY_POLICY = RetryPolicy(deadline=20.0, max_retries=3, backoff_base=0.5,
                           backoff_cap=10.0, retry_budget=50)
WEB_CONFIG = WebServerConfig(accept_queue_limit=256)


def run_failover_point(task) -> FailoverSummary:
    """One configuration through one crash/restart cycle.

    ``task`` is ``(spec, tier, scale)``; this is the worker entry of the
    sweep (the availability sampler rides the live population, so the
    cycle is summarized where it ran) and ``spec`` may arrive stripped
    of its profile."""
    spec, tier, scale = task
    spec = rehydrate_spec(spec)
    sim = Simulator()
    site = build_site(sim, spec)
    contained = tier not in site.machines
    population = ClientPopulation(
        sim, spec.clients, spec.mix, site, RngStreams(spec.seed),
        choose_interaction, retry=spec.retry)
    fault_start = scale.ramp_up + scale.pre
    fault_end = fault_start + scale.outage
    plan = FaultPlan.single_crash(tier, at=fault_start,
                                  duration=scale.outage)
    FaultInjector(sim, site, plan).start()
    population.start()

    sim.run(until=scale.ramp_up)
    population.begin_measurement()
    sampler = AvailabilitySampler(sim, population, interval=scale.window)
    sampler.start()
    sim.run(until=fault_end + scale.post)
    stats = population.end_measurement()
    sampler.flush()

    return summarize_failover(spec.config.name, tier, sampler.windows,
                              fault_start, fault_end, stats,
                              contained=contained)


def _cycle_spec(app_name: str, mix_name: str, config,
                scale: FailoverScale, seed: int) -> ExperimentSpec:
    clients = scale.ejb_clients if config.flavor == "ejb" else scale.clients
    return point_spec(
        app_name, mix_name, config, clients,
        Phases(scale.ramp_up, scale.pre + scale.outage + scale.post, 0.0),
        seed, retry=RETRY_POLICY, web_config=WEB_CONFIG)


def run_failover(tier: str = "db", scale: str = "tiny",
                 app_name: str = "bookstore", mix_name: str = "shopping",
                 seed: int = 42,
                 configurations: Optional[Tuple[str, ...]] = None,
                 jobs: Optional[int] = None) -> FailoverReport:
    """The full experiment: all six configurations through one cycle.

    ``jobs`` > 1 runs the per-configuration crash/restart cycles in
    parallel (they are independent simulations); summaries are merged
    in configuration order, identical to the serial output.
    """
    if tier not in TIERS:
        raise KeyError(f"unknown tier {tier!r}; have {TIERS}")
    timeline = SCALES[scale]
    report = FailoverReport(
        title=f"Availability under {tier} crash/restart "
              f"({app_name}/{mix_name}, scale={scale})",
        tier=tier)
    todo = configurations or tuple(c.name for c in ALL_CONFIGURATIONS)
    tasks = [(strip_spec(_cycle_spec(app_name, mix_name, config, timeline,
                                     seed)), tier, timeline)
             for config in ALL_CONFIGURATIONS if config.name in todo]
    report.summaries.extend(
        parallel_map(run_failover_point, tasks, jobs=jobs,
                     app_names=(app_name,)))
    return report


def render(tier: str = "db", scale: str = "tiny", **kwargs) -> str:
    return run_failover(tier=tier, scale=scale, **kwargs).render()
