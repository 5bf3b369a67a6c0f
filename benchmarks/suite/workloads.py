"""The four workloads' fixed inputs, and how ``--seed`` turns them into
what the program receives.

Everything here is a constant of the benchmark: points, client counts,
phases and page counts are the same on every commit, and only the seed
varies between runs (it feeds ``ExperimentSpec.seed`` and the request
stream RNG; the program never sees the seed otherwise).

Sizing: one pass over a workload's inputs takes ~4 s of host time on the
2-core box this was written on, so that three timed passes fit the
10 s measuring window of ``BENCHMARK.json`` and a whole run -- three cold
set-ups, a warm-up pass and the timed passes -- stays near 30 s.  That
is shorter than the ``repro perf`` bench phases of (300, 300, 5) /
(90, 120, 5): the closed-loop phases below are the shortest at which
every point still completes interactions inside its window (the
DB-bound ``(sync)`` bookstore points complete none at 48 s).
``--smoke`` shrinks clients and phases further; its numbers only prove
the suite runs.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# -- simulated points ---------------------------------------------------------

# (ramp-up, measure, ramp-down) in simulated seconds, per application.
PAPER6_PHASES = {"bookstore": (100.0, 100.0, 5.0),
                 "auction": (15.0, 20.0, 5.0)}
SCALEOUT_PHASES = (65.0, 65.0, 5.0)
SMOKE_PHASES = (20.0, 20.0, 2.0)
SMOKE_DIVISOR = 10             # --smoke: clients and page counts / 10

# (configuration, app, mix, clients at the bench peak, paper peak ipm)
PAPER6_POINTS = (
    ("WsPhp-DB", "auction", "bidding", 1400, 9780.0),
    ("WsServlet-DB", "bookstore", "shopping", 300, 520.0),
    ("WsServlet-DB(sync)", "bookstore", "shopping", 600, 663.0),
    ("Ws-Servlet-DB", "auction", "browsing", 2200, 12000.0),
    ("Ws-Servlet-DB(sync)", "bookstore", "shopping", 600, 665.0),
    ("Ws-Servlet-EJB-DB", "auction", "bidding", 550, 4136.0),
)

# The cache point runs the shopping mix, not browsing: under browsing,
# whether the few best_sellers pages hit the cache decides whether the
# database saturates, and the events one seed simulates differ from
# another's by up to 22% -- which alone put this workload's ten-seed
# run_wall_s spread above 4%.  Shopping also makes the cache invalidate.
SCALEOUT_POINTS = (
    ("Ws{2}-Servlet{2}-DB(1+2)", "bookstore", "shopping", 600),
    ("Ws{2}-Servlet{2}-Cache{2}-DB(1+1)", "bookstore", "shopping", 300),
    ("Ws{2}-Servlet{2}-DB[4](1+1)", "bookstore", "ordering", 500),
)

# The BENCH_perf.json point, at the ``repro perf`` bench phases.
CANONICAL_POINT = ("WsServlet-DB", "bookstore", "shopping", 300)
CANONICAL_PHASES = (300.0, 300.0, 5.0)

# Open-loop timeline: the ext_slo "full" scale (120 / 300 / 15 s, chaos
# 60 + 60 + 240 s) times 0.38, rates and policies unchanged.
OVERLOAD = dict(ramp_up=45.0, measure=115.0, ramp_down=5.0,
                session_mean=90.0, chaos_rate=2.0, chaos_multiplier=8.0,
                chaos_pre=23.0, chaos_burst=23.0, chaos_crash_delay=4.0,
                chaos_outage=11.0, chaos_post=90.0)
SMOKE_OVERLOAD = dict(OVERLOAD, ramp_up=10.0, measure=25.0, ramp_down=2.0,
                      chaos_pre=5.0, chaos_burst=8.0, chaos_crash_delay=2.0,
                      chaos_outage=4.0, chaos_post=15.0)
OVERLOAD_POINTS = (("WsServlet-DB(sync)", 8.0), ("Ws-Servlet-DB", 12.0))
CHAOS_CONFIG = "Ws{2}-Servlet{2}-DB(1+1)"
CHAOS_REPLICA = "db.r1"


def sim_apps(workload: str) -> Tuple[str, ...]:
    """The applications whose profiles a simulated workload replays."""
    return ("bookstore", "auction") if workload == "sim-paper6" \
        else ("bookstore",)


def _spec(apps, profiles, config_name, app_name, mix, clients, phases, seed,
          **extra):
    from repro.harness.experiment import ExperimentSpec
    from repro.topology.spec import parse_topology

    config = parse_topology(config_name)
    app = apps[app_name]
    ramp_up, measure, ramp_down = phases
    return ExperimentSpec(
        config=config, profile=profiles[app_name][config.profile_flavor],
        mix=app.mix(mix), clients=clients, ramp_up=ramp_up,
        measure=measure, ramp_down=ramp_down, seed=seed,
        ssl_interactions=app.SSL_INTERACTIONS, app_name=app_name, **extra)


def _sized(clients: int, phases, smoke: bool):
    return (clients // SMOKE_DIVISOR, SMOKE_PHASES) if smoke \
        else (clients, phases)


def paper6_specs(apps, profiles, seed: int, smoke: bool) -> list:
    return [_spec(apps, profiles, config, app, mix,
                  *_sized(clients, PAPER6_PHASES[app], smoke), seed)
            for config, app, mix, clients, __ in PAPER6_POINTS]


def scaleout_specs(apps, profiles, seed: int, smoke: bool) -> list:
    return [_spec(apps, profiles, config, app, mix,
                  *_sized(clients, SCALEOUT_PHASES, smoke), seed)
            for config, app, mix, clients in SCALEOUT_POINTS]


def canonical_spec(apps, profiles, seed: int, smoke: bool, **extra):
    config, app, mix, clients = CANONICAL_POINT
    return _spec(apps, profiles, config, app, mix,
                 *_sized(clients, CANONICAL_PHASES, smoke), seed, **extra)


def idle_degradation_policy():
    """Gates, breaker and shedding installed with limits no run reaches."""
    from repro.overload import DegradationPolicy

    never = 10 ** 6
    return DegradationPolicy(
        container_concurrency=never, container_backlog=never,
        db_concurrency=never, db_backlog=never, shed_queue_threshold=never)


def overload_specs(apps, profiles, seed: int, smoke: bool):
    """Two Poisson points past the knee and the flash-crowd + replica
    crash, with the ``ext_slo`` resilience parameters.  Returns the
    specs and the simulated time at which the chaos point's disturbance
    (burst and outage) is over."""
    from repro.faults.plan import FaultPlan
    from repro.metrics.slo import SloSpec
    from repro.overload import (AbandonmentSpec, DegradationPolicy,
                                FlashCrowdProfile, OverloadSpec,
                                PoissonProfile, ThinkTimeModel)
    from repro.web.server import WebServerConfig
    from repro.workload.client import RetryPolicy

    t = SMOKE_OVERLOAD if smoke else OVERLOAD

    def spec(config_name, arrivals, think, measure, fault_plan=None):
        return _spec(
            apps, profiles, config_name, "bookstore", "shopping", 0,
            (t["ramp_up"], measure, t["ramp_down"]), seed,
            retry=RetryPolicy(deadline=10.0, max_retries=2,
                              backoff_base=0.25, backoff_cap=4.0,
                              retry_budget=20),
            web_config=WebServerConfig(accept_queue_limit=256),
            overload=OverloadSpec(
                arrivals=arrivals, think=think,
                session_mean=t["session_mean"],
                abandonment=AbandonmentSpec(patience=8.0, probability=0.5),
                max_concurrent_sessions=4096),
            degradation=DegradationPolicy(),
            slo=SloSpec(latency_bound=2.0, percentile=0.95, window=1.0),
            fault_plan=fault_plan)

    specs = [spec(config, PoissonProfile(rate=rate), ThinkTimeModel(),
                  t["measure"])
             for config, rate in OVERLOAD_POINTS]
    burst_start = t["ramp_up"] + t["chaos_pre"]
    crash_start = burst_start + t["chaos_crash_delay"]
    crash_end = crash_start + t["chaos_outage"]
    burst_end = burst_start + t["chaos_burst"]
    chaos = spec(
        CHAOS_CONFIG,
        FlashCrowdProfile(base_rate=t["chaos_rate"], burst_start=burst_start,
                          burst_duration=t["chaos_burst"],
                          multiplier=t["chaos_multiplier"]),
        ThinkTimeModel(distribution="lognormal", mean=7.0, sigma=1.5),
        t["chaos_pre"] + t["chaos_burst"]
        + max(0.0, crash_end - burst_end) + t["chaos_post"],
        FaultPlan.single_crash(CHAOS_REPLICA, at=crash_start,
                               duration=t["chaos_outage"]))
    specs.append(chaos)
    return specs, max(burst_end, crash_end)


# -- functional pages ---------------------------------------------------------

FUNC_ARCHS = ("php", "servlet_sync", "ejb")

# phase -> (app, mix, {arch: pages}).  One bookstore best_sellers page
# costs ~60 ms through PHP/servlet and ~1.2 s through EJB CMP, against
# 0.2-5 ms for anything else, so the bookstore counts are what set each
# phase's length; the auction counts supply the latency samples.
FUNC_PHASES = {
    "read": (("bookstore", "browsing",
              {"php": 36, "servlet_sync": 36, "ejb": 9}),
             ("auction", "browsing",
              {"php": 1200, "servlet_sync": 1200, "ejb": 150})),
    "write": (("bookstore", "ordering",
               {"php": 300, "servlet_sync": 300, "ejb": 100}),
              ("auction", "bidding",
               {"php": 1200, "servlet_sync": 1200, "ejb": 250})),
}


def stratified(mix: Dict[str, float], count: int) -> List[str]:
    """``count`` interaction names in exactly the mix's proportions.

    Independent draws would let the number of best_sellers pages -- and
    with it a phase's wall time -- swing by +-30% from seed to seed.
    Each interaction gets ``round(share * count)`` pages; the most
    frequent one absorbs the rounding remainder.
    """
    total = sum(mix.values())
    counts = {name: round(weight / total * count)
              for name, weight in mix.items()}
    commonest = max(mix, key=mix.get)
    counts[commonest] += count - sum(counts.values())
    return [name for name, n in counts.items() for __ in range(n)]


def page_streams(apps, seed: int, smoke: bool) -> list:
    """[(phase, app name, arch, [(interaction, request), ...]), ...],
    read phase first.

    The seed shuffles each stream's order and draws every request
    parameter; the number of pages of each kind is fixed.
    """
    streams = []
    for phase, parts in FUNC_PHASES.items():
        for app_name, mix_name, pages in parts:
            app = apps[app_name]
            for arch in FUNC_ARCHS:
                count = pages[arch]
                if smoke:
                    count = max(1, count // SMOKE_DIVISOR)
                rng = random.Random(f"{seed}/{phase}/{app_name}/{arch}")
                names = stratified(app.mix(mix_name), count)
                rng.shuffle(names)
                state = app.make_state(rng)
                streams.append((phase, app_name, arch, [
                    (name, app.make_request(name, rng, state))
                    for name in names]))
    return streams
