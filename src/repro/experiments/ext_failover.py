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

from repro.experiments.sweep import (
    HEADLINE_MIXES as DEFAULT_MIXES,
    SweepRow,
    run_rows,
    scale_level,
)
from repro.faults.plan import TIERS, FaultPlan
from repro.harness.experiment import Phases, point_spec
from repro.metrics.availability import FailoverReport, summarize_failover
from repro.metrics.slo import SloSpec
from repro.topology.configs import ALL_CONFIGURATIONS, configuration_names
from repro.web.server import WebServerConfig
from repro.workload.client import RetryPolicy


@dataclass(frozen=True)
class FailoverScale:
    """Timeline and load for one failover run (virtual seconds)."""

    clients: int          # non-EJB configurations
    ejb_clients: int      # the EJB configuration runs at lower load
    ramp_up: float
    pre: float            # steady measurement before the crash
    outage: float         # how long the tier stays down
    post: float           # measurement after the restart
    window: float         # availability window width


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


def run_failover(scale: str = "tiny", app_name: str = "bookstore",
                 mixes: Optional[Tuple[str, ...]] = None,
                 configs: Optional[Tuple[str, ...]] = None, seed: int = 42,
                 jobs: Optional[int] = None, tier: str = "db") \
        -> FailoverReport:
    """The full experiment: each of the six configurations (or those
    named in ``configs``) through one crash/restart cycle of ``tier``.
    ``mixes`` names the one mix to run.

    A cycle is an ordinary point: ramp-up, then one measurement window
    spanning pre-fault, outage and recovery, with the crash as the
    spec's ``fault_plan`` and ``slo.window`` the availability window
    width -- ``measure_point`` attaches the window series.
    """
    if tier not in TIERS:
        raise KeyError(f"unknown tier {tier!r}; have {TIERS}")
    level = scale_level(SCALES, scale)
    mix_name, = mixes or DEFAULT_MIXES[app_name]
    fault_start = level.ramp_up + level.pre
    fault_end = fault_start + level.outage
    todo = configs or configuration_names()
    rows = run_rows([
        SweepRow(config, point_spec(
            app_name, mix_name, config, 1,
            Phases(level.ramp_up, level.pre + level.outage + level.post, 0.0),
            seed, retry=RETRY_POLICY, web_config=WEB_CONFIG,
            fault_plan=FaultPlan.single_crash(tier, at=fault_start,
                                              duration=level.outage),
            slo=SloSpec(window=level.window)),
            (level.ejb_clients if config.flavor == "ejb"
             else level.clients,))
        for config in ALL_CONFIGURATIONS if config.name in todo], jobs)
    return FailoverReport(
        title=f"Availability under {tier} crash/restart "
              f"({app_name}/{mix_name}, scale={scale})",
        tier=tier,
        summaries=[summarize_failover(
            row.configuration, tier, row.peak.availability.windows,
            fault_start, fault_end, row.peak.availability,
            # A tier with no machine of its own here cannot crash: the
            # containment case.
            contained=tier not in row.key.machine_names())
            for row in rows])
