"""Extension experiment: SLOs under open-loop overload.

The paper's closed loop can never offer the site more load than its
clients generate; this experiment drives each of the six configurations
with *open-loop* session arrivals (:mod:`repro.overload`) and sweeps the
arrival rate through saturation, reporting per offered-load point the
goodput, latency percentiles, windowed SLO-violation fraction, and the
work the graceful-degradation layer did (backpressure rejections,
degraded pages).  The knee of the goodput curve -- the highest rate
still meeting the SLO -- is the open-loop counterpart of the paper's
closed-loop saturation client count.

A second scenario composes overload with :mod:`repro.faults`: a flash
crowd hits a clustered ``Ws-Servlet-DB`` deployment (2 web front ends,
2 servlet containers, 1 DB read replica) and the read replica crashes
mid-burst.  The run reports the SLO-compliance fraction through the
incident and the time from the disturbance clearing until the site is
back in compliance.

Run:  python -m repro slo [--scale tiny|quick|full] [--jobs N]
      python -m repro slo --chaos-only
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.sweep import (
    HEADLINE_MIXES as DEFAULT_MIXES,
    SweepRow,
    run_rows,
    scale_level,
)
from repro.faults.plan import FaultPlan
from repro.harness.experiment import ExperimentSpec, Phases, point_spec
from repro.metrics.report import table
from repro.metrics.slo import SloSpec, time_to_recover
from repro.overload.arrivals import (
    AbandonmentSpec,
    FlashCrowdProfile,
    PoissonProfile,
    ThinkTimeModel,
)
from repro.overload.degradation import DegradationPolicy
from repro.overload.openloop import OverloadSpec
from repro.topology.configs import ALL_CONFIGURATIONS, configuration_names
from repro.topology.spec import topology
from repro.web.server import WebServerConfig
from repro.workload.client import RetryPolicy


@dataclass(frozen=True)
class SloScale:
    """Offered-load grid and timeline for one sweep (virtual seconds)."""

    rates: Tuple[float, ...]       # session arrivals/s, non-EJB configs
    ejb_rates: Tuple[float, ...]   # the EJB flavor saturates earlier
    ramp_up: float
    measure: float
    ramp_down: float
    session_mean: float            # mean session duration
    window: float = 1.0            # SLO window width
    # Chaos scenario: flash crowd + replica crash on a clustered site.
    chaos_rate: float = 2.0        # baseline session arrivals/s
    chaos_pre: float = 40.0        # steady time before the burst
    chaos_burst: float = 40.0      # burst duration
    chaos_multiplier: float = 8.0  # burst rate / baseline rate
    chaos_crash_delay: float = 10.0   # burst start -> replica crash
    chaos_outage: float = 20.0     # replica downtime
    chaos_post: float = 120.0      # measurement after the disturbance


SCALES: Dict[str, SloScale] = {
    "tiny": SloScale(rates=(0.5, 1.5), ejb_rates=(0.2, 0.6),
                     ramp_up=30.0, measure=60.0, ramp_down=5.0,
                     session_mean=30.0, chaos_pre=30.0,
                     chaos_burst=30.0, chaos_post=80.0),
    "quick": SloScale(rates=(0.5, 1.0, 2.0, 4.0),
                      ejb_rates=(0.2, 0.5, 1.0),
                      ramp_up=60.0, measure=120.0, ramp_down=10.0,
                      session_mean=60.0),
    "full": SloScale(rates=(0.5, 1.0, 2.0, 4.0, 8.0, 12.0),
                     ejb_rates=(0.2, 0.5, 1.0, 2.0, 4.0),
                     ramp_up=120.0, measure=300.0, ramp_down=15.0,
                     session_mean=90.0, chaos_pre=60.0, chaos_burst=60.0,
                     chaos_outage=30.0, chaos_post=240.0),
}

# Shared resilience knobs.  The SLO is TPC-W-flavored: 95% of requests
# inside 2 s, judged per 1 s window.
SLO = SloSpec(latency_bound=2.0, percentile=0.95, window=1.0)
RETRY_POLICY = RetryPolicy(deadline=10.0, max_retries=2, backoff_base=0.25,
                           backoff_cap=4.0, retry_budget=20)
WEB_CONFIG = WebServerConfig(accept_queue_limit=256)
ABANDONMENT = AbandonmentSpec(patience=8.0, probability=0.5)


def _overload_spec(arrivals, scale: SloScale,
                   think: Optional[ThinkTimeModel] = None) -> OverloadSpec:
    return OverloadSpec(
        arrivals=arrivals,
        think=think or ThinkTimeModel(),   # the paper's 7 s exponential
        session_mean=scale.session_mean,
        abandonment=ABANDONMENT,
        max_concurrent_sessions=4096)


def _point_spec(app_name: str, mix_name: str, config, overload,
                scale: SloScale, seed: int, measure: Optional[float] = None,
                **overrides) -> ExperimentSpec:
    return point_spec(
        app_name, mix_name, config, 0,
        Phases(scale.ramp_up,
               scale.measure if measure is None else measure,
               scale.ramp_down),
        seed, retry=RETRY_POLICY, web_config=WEB_CONFIG,
        overload=overload, degradation=DegradationPolicy(),
        slo=replace(SLO, window=scale.window),
        **overrides)


def chaos_row(scale: SloScale, seed: int = 42, app_name: str = "bookstore",
              mix_name: str = "shopping") -> SweepRow:
    """Flash crowd + read-replica crash on a clustered Ws-Servlet-DB.
    The row's spec is the incident's timeline: the burst is its
    arrival profile, the crash its fault plan."""
    config = topology("Ws-Servlet-DB", web=2, gen=2, db_replicas=1)

    burst_start = scale.ramp_up + scale.chaos_pre
    burst_end = burst_start + scale.chaos_burst
    crash_start = burst_start + scale.chaos_crash_delay
    crash_end = crash_start + scale.chaos_outage
    measure = scale.chaos_pre + scale.chaos_burst + \
        max(0.0, crash_end - burst_end) + scale.chaos_post

    overload = _overload_spec(
        FlashCrowdProfile(base_rate=scale.chaos_rate,
                          burst_start=burst_start,
                          burst_duration=scale.chaos_burst,
                          multiplier=scale.chaos_multiplier),
        scale,
        # Heavy-tailed dwell: the crowd lingers after the burst.
        think=ThinkTimeModel(distribution="lognormal", mean=7.0,
                             sigma=1.5))
    return SweepRow("chaos", _point_spec(
        app_name, mix_name, config, overload, scale, seed, measure=measure,
        fault_plan=FaultPlan.single_crash("db.r1", at=crash_start,
                                          duration=scale.chaos_outage)),
        (0,))


@dataclass
class SloReport:
    """Everything ``python -m repro slo`` prints: per configuration one
    row per offered rate (the rows' ``key``), then the chaos run."""

    title: str
    points: Dict[str, List[SweepRow]] = field(default_factory=dict)
    chaos: Optional[SweepRow] = None

    def render(self) -> str:
        lines = [self.title, ""]
        for name, rows in self.points.items():
            header, body = table((
                ("rate/s", "  >7.2f", lambda r: r.key),
                ("offered/s", " >9.2f", lambda r: r.peak.slo.offered_per_s),
                ("goodput/s", " >9.2f", lambda r: r.peak.slo.goodput_per_s),
                ("p50ms", " >7", lambda r: _ms(r.peak.slo.p50)),
                ("p95ms", " >7", lambda r: _ms(r.peak.slo.p95)),
                ("p99ms", " >7", lambda r: _ms(r.peak.slo.p99)),
                ("viol%", " >6.1f",
                 lambda r: 100 * r.peak.slo.violation_fraction),
                ("rej", " >6", lambda r: r.peak.overload_stats.rejections),
                ("degr", " >6", lambda r: r.peak.degradation.degraded_served),
                ("trips", " >5", lambda r: r.peak.degradation.breaker.trips),
            ), rows)
            best = max(r.peak.slo.goodput_per_s for r in rows)
            lines += [name, header, "  " + "-" * (len(header) - 2)]
            lines += [line + (" *" if best > 0
                              and row.peak.slo.goodput_per_s == best else "")
                      for row, line in zip(rows, body)]
            lines.append("")
        if self.points:
            lines.append("offered/goodput in interactions/s over stable "
                         "1 s windows; viol% = windows missing the "
                         f"{SLO.percentile:.0%} < {SLO.latency_bound:.0f} s "
                         "objective; * marks the goodput knee.")
            lines.append("")
        if self.chaos is not None:
            point = self.chaos.peak
            burst = self.chaos.spec.overload.arrivals
            crash, = self.chaos.spec.fault_plan.events
            recovery = time_to_recover(
                point.slo_windows, self.chaos.spec.slo,
                max(burst.burst_end, crash.clears_at))
            lines.append(f"chaos: flash crowd + replica crash on "
                         f"{self.chaos.configuration}")
            lines.append(f"  burst  {burst.burst_start:.0f}s -> "
                         f"{burst.burst_end:.0f}s, replica {crash.tier} down "
                         f"{crash.at:.0f}s -> {crash.clears_at:.0f}s")
            recover = ("never (within the run)" if recovery is None
                       else f"{recovery:.0f}s after the "
                            f"disturbance cleared")
            lines.append(f"  SLO compliance through the incident: "
                         f"{100 * point.slo.compliant_fraction:.1f}% of "
                         f"windows; goodput {point.slo.goodput_per_s:.2f}"
                         f"/s of {point.slo.offered_per_s:.2f}/s offered")
            lines.append(f"  back in compliance: {recover}")
            lines.append(f"  degraded pages "
                         f"{point.degradation.degraded_served}, breaker "
                         f"trips {point.degradation.breaker.trips}, "
                         f"rejections {point.overload_stats.rejections}, "
                         f"sessions abandoned "
                         f"{point.overload_stats.sessions_abandoned}")
        return "\n".join(lines)


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{1000 * seconds:.0f}"


def run_slo(scale: str = "tiny", app_name: str = "bookstore",
            mixes: Optional[Tuple[str, ...]] = None,
            configs: Optional[Tuple[str, ...]] = None, seed: int = 42,
            jobs: Optional[int] = None, no_chaos: bool = False,
            chaos_only: bool = False) -> SloReport:
    """The full experiment: offered-load sweeps (skipped by
    ``chaos_only``) plus the chaos run (skipped by ``no_chaos``), all
    one ``run_points`` list.  ``mixes`` names the one mix to run."""
    level = scale_level(SCALES, scale)
    mix_name, = mixes or DEFAULT_MIXES[app_name]
    report = SloReport(
        title=f"Open-loop SLO sweep ({app_name}/{mix_name}, "
              f"scale={scale}, SLO: p{100 * SLO.percentile:.0f} < "
              f"{SLO.latency_bound:.0f}s per {level.window:.0f}s "
              f"window)")
    rows = []
    if not chaos_only:
        todo = configs or configuration_names()
        rows = [
            SweepRow(rate,
                     _point_spec(app_name, mix_name, config,
                                 _overload_spec(PoissonProfile(rate=rate),
                                                level),
                                 level, seed),
                     (0,))
            for config in ALL_CONFIGURATIONS if config.name in todo
            for rate in (level.ejb_rates if config.flavor == "ejb"
                         else level.rates)]
        for row in rows:
            report.points.setdefault(row.configuration, []).append(row)
    if not no_chaos:
        report.chaos = chaos_row(level, seed, app_name, mix_name)
        rows = rows + [report.chaos]
    run_rows(rows, jobs)
    return report
