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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import HEADLINE_MIXES, group_by_key
from repro.harness.experiment import (
    ExperimentSpec,
    Phases,
    point_spec,
    run_experiment,
)
from repro.harness.parallel import parallel_map, rehydrate_spec, strip_spec
from repro.metrics.slo import SloSpec, SloSummary, time_to_recover
from repro.overload.arrivals import (
    AbandonmentSpec,
    FlashCrowdProfile,
    PoissonProfile,
    ThinkTimeModel,
)
from repro.overload.degradation import DegradationPolicy
from repro.overload.openloop import OverloadSpec
from repro.topology.configs import ALL_CONFIGURATIONS
from repro.topology.spec import topology
from repro.web.server import WebServerConfig
from repro.workload.client import RetryPolicy

DEFAULT_MIXES = HEADLINE_MIXES


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
        slo=SloSpec(latency_bound=SLO.latency_bound,
                    percentile=SLO.percentile, window=scale.window),
        **overrides)


@dataclass
class SloPoint:
    """One (configuration, offered rate) result."""

    configuration: str
    rate: float                    # session arrivals/s asked for
    summary: SloSummary
    rejections: int = 0            # fast 5xx the client saw
    degraded_served: int = 0       # browse pages served degraded
    breaker_trips: int = 0
    turned_away: int = 0           # arrivals over the connection cap


def run_slo_point(spec: ExperimentSpec) -> SloPoint:
    """One configuration at one offered session-arrival rate.

    This is the worker entry of the sweep: the point carries the live
    (unpicklable) degradation state, so it is folded to scalars here,
    where it ran, and ``spec`` may arrive stripped of its profile."""
    point = run_experiment(rehydrate_spec(spec))
    stats = point.overload_stats
    degradation = getattr(point, "degradation", None)
    return SloPoint(
        configuration=spec.config.name, rate=spec.overload.arrivals.rate,
        summary=point.slo, rejections=stats.rejections,
        degraded_served=degradation.degraded_served if degradation else 0,
        breaker_trips=(degradation.breaker.trips
                       if degradation and degradation.breaker else 0),
        turned_away=stats.turned_away)


@dataclass
class ChaosSummary:
    """The flash-crowd + replica-crash incident, folded."""

    configuration: str
    burst_start: float
    burst_end: float
    crash_start: float
    crash_end: float
    summary: SloSummary                  # over the whole measurement
    recovery_time_s: Optional[float]     # disturbance end -> compliant
    degraded_served: int = 0
    breaker_trips: int = 0
    rejections: int = 0
    abandoned_sessions: int = 0


def run_chaos(scale: SloScale, seed: int = 42,
              app_name: str = "bookstore",
              mix_name: str = "shopping") -> ChaosSummary:
    """Flash crowd + read-replica crash on a clustered Ws-Servlet-DB."""
    from repro.faults.plan import FaultPlan

    config = topology("Ws-Servlet-DB", web=2, gen=2, db_replicas=1)

    burst_start = scale.ramp_up + scale.chaos_pre
    burst_end = burst_start + scale.chaos_burst
    crash_start = burst_start + scale.chaos_crash_delay
    crash_end = crash_start + scale.chaos_outage
    disturbance_end = max(burst_end, crash_end)
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
    spec = _point_spec(
        app_name, mix_name, config, overload, scale, seed, measure=measure,
        fault_plan=FaultPlan.single_crash("db.r1", at=crash_start,
                                          duration=scale.chaos_outage))
    point = run_experiment(spec)
    stats = point.overload_stats
    degradation = getattr(point, "degradation", None)
    recovery = time_to_recover(point.slo_windows, spec.slo,
                               disturbance_end)
    return ChaosSummary(
        configuration=config.name,
        burst_start=burst_start, burst_end=burst_end,
        crash_start=crash_start, crash_end=crash_end,
        summary=point.slo, recovery_time_s=recovery,
        degraded_served=degradation.degraded_served if degradation else 0,
        breaker_trips=(degradation.breaker.trips
                       if degradation and degradation.breaker else 0),
        rejections=stats.rejections,
        abandoned_sessions=stats.sessions_abandoned)


@dataclass
class SloReport:
    """Everything ``python -m repro slo`` prints."""

    title: str
    scale: str
    points: Dict[str, List[SloPoint]] = field(default_factory=dict)
    chaos: Optional[ChaosSummary] = None

    def render(self) -> str:
        lines = [self.title, ""]
        header = (f"  {'rate/s':>7} {'offered/s':>9} {'goodput/s':>9} "
                  f"{'p50ms':>7} {'p95ms':>7} {'p99ms':>7} {'viol%':>6} "
                  f"{'rej':>6} {'degr':>6} {'trips':>5}")
        for name, points in self.points.items():
            lines.append(f"{name}")
            lines.append(header)
            lines.append("  " + "-" * (len(header) - 2))
            best = max((p.summary.goodput_per_s for p in points),
                       default=0.0)
            for p in points:
                s = p.summary
                knee = " *" if s.goodput_per_s == best and best > 0 else ""
                lines.append(
                    f"  {p.rate:>7.2f} {s.offered_per_s:>9.2f} "
                    f"{s.goodput_per_s:>9.2f} "
                    f"{_ms(s.p50):>7} {_ms(s.p95):>7} {_ms(s.p99):>7} "
                    f"{100 * s.violation_fraction:>6.1f} "
                    f"{p.rejections:>6} {p.degraded_served:>6} "
                    f"{p.breaker_trips:>5}{knee}")
            lines.append("")
        if self.points:
            lines.append("offered/goodput in interactions/s over stable "
                         "1 s windows; viol% = windows missing the "
                         f"{SLO.percentile:.0%} < {SLO.latency_bound:.0f} s "
                         "objective; * marks the goodput knee.")
            lines.append("")
        if self.chaos is not None:
            c = self.chaos
            lines.append(f"chaos: flash crowd + replica crash on "
                         f"{c.configuration}")
            lines.append(f"  burst  {c.burst_start:.0f}s -> "
                         f"{c.burst_end:.0f}s, replica db.r1 down "
                         f"{c.crash_start:.0f}s -> {c.crash_end:.0f}s")
            recover = ("never (within the run)"
                       if c.recovery_time_s is None
                       else f"{c.recovery_time_s:.0f}s after the "
                            f"disturbance cleared")
            lines.append(f"  SLO compliance through the incident: "
                         f"{100 * c.summary.compliant_fraction:.1f}% of "
                         f"windows; goodput {c.summary.goodput_per_s:.2f}"
                         f"/s of {c.summary.offered_per_s:.2f}/s offered")
            lines.append(f"  back in compliance: {recover}")
            lines.append(f"  degraded pages {c.degraded_served}, breaker "
                         f"trips {c.breaker_trips}, rejections "
                         f"{c.rejections}, sessions abandoned "
                         f"{c.abandoned_sessions}")
        return "\n".join(lines)


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{1000 * seconds:.0f}"


def run_slo(scale: str = "tiny", app_name: str = "bookstore",
            mix_name: str = "shopping", seed: int = 42,
            configurations: Optional[Tuple[str, ...]] = None,
            jobs: Optional[int] = None, chaos: bool = True,
            sweep: bool = True) -> SloReport:
    """The full experiment: offered-load sweeps plus the chaos run."""
    timeline = SCALES[scale]
    report = SloReport(
        title=f"Open-loop SLO sweep ({app_name}/{mix_name}, "
              f"scale={scale}, SLO: p{100 * SLO.percentile:.0f} < "
              f"{SLO.latency_bound:.0f}s per {timeline.window:.0f}s "
              f"window)",
        scale=scale)
    if sweep:
        todo = configurations or tuple(c.name for c in ALL_CONFIGURATIONS)
        specs = [
            _point_spec(app_name, mix_name, config,
                        _overload_spec(PoissonProfile(rate=rate), timeline),
                        timeline, seed)
            for config in ALL_CONFIGURATIONS if config.name in todo
            for rate in (timeline.ejb_rates if config.flavor == "ejb"
                         else timeline.rates)]
        report.points = group_by_key(
            [spec.config.name for spec in specs],
            parallel_map(run_slo_point, [strip_spec(s) for s in specs],
                         jobs=jobs, app_names=(app_name,)))
    if chaos:
        report.chaos = run_chaos(timeline, seed=seed, app_name=app_name,
                                 mix_name=mix_name)
    return report


def render(**kwargs) -> str:
    return run_slo(**kwargs).render()
