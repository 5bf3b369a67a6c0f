"""Availability metrics: windowed goodput, error breakdown, recovery time.

The steady-state figures need one number per run (throughput over the
whole measurement window); a failover run needs a *time series* -- the
throughput dip while a tier is down and the time it takes to climb back
are the results.  :class:`AvailabilitySampler` snapshots the client
population's cumulative counters every few virtual seconds;
:func:`summarize_failover` folds the windows against the fault timeline
into the numbers the ``ext_failover`` report prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.metrics.report import table
from repro.sim.kernel import Simulator

# A window counts as "recovered" when its goodput is back to this
# fraction of the pre-fault mean.
RECOVERY_FRACTION = 0.9


@dataclass
class AvailabilityWindow:
    """Per-window deltas of the population's counters."""

    start: float
    end: float
    completions: int = 0
    timeouts: int = 0
    aborts: int = 0
    rejections: int = 0
    retries: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def goodput_ipm(self) -> float:
        """Successful interactions per minute in this window."""
        if self.duration <= 0:
            return 0.0
        return self.completions * 60.0 / self.duration

    @property
    def errors(self) -> int:
        return self.timeouts + self.aborts + self.rejections


class AvailabilitySampler:
    """Samples a :class:`~repro.workload.client.ClientPopulation` every
    ``interval`` virtual seconds; the baseline snapshot is taken at
    :meth:`start`, so start it right after ``begin_measurement()``."""

    def __init__(self, sim: Simulator, population, interval: float = 10.0):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.population = population
        self.interval = interval
        self.windows: List[AvailabilityWindow] = []
        self._last = None

    def start(self) -> None:
        self._last = self._snapshot()
        self.sim.spawn(self._run(), name="availability-sampler")

    def _snapshot(self) -> tuple:
        stats = self.population.stats
        return (self.sim.now, stats.interactions_completed, stats.timeouts,
                stats.aborts, stats.rejections, stats.retries)

    def _run(self):
        while True:
            yield self.interval
            self._close_window()

    def _close_window(self) -> None:
        now = self._snapshot()
        last = self._last
        self.windows.append(AvailabilityWindow(
            start=last[0], end=now[0],
            completions=now[1] - last[1], timeouts=now[2] - last[2],
            aborts=now[3] - last[3], rejections=now[4] - last[4],
            retries=now[5] - last[5]))
        self._last = now

    def flush(self) -> None:
        """Close the partial window between the last sample and now.

        Runs shorter than one interval -- or whose measurement ends
        mid-window -- would otherwise drop the tail silently.  Call at
        end of measurement, before summarizing.  A zero-length tail
        (measurement ended exactly on a sample) is not recorded.
        """
        if self._last is None:
            return
        if self.sim.now > self._last[0]:
            self._close_window()

    def close(self, stats) -> "Availability":
        """Flush, and fold the series with the population's
        measurement-window ``stats`` into what a point carries."""
        self.flush()
        return Availability(self.windows, stats.timeouts, stats.aborts,
                            stats.rejections, stats.retries, stats.abandoned)


@dataclass
class Availability:
    """A faulted closed-loop point's ``availability`` attribute: the
    window series over the measurement and the error totals
    (picklable; :func:`summarize_failover` takes it as ``stats``)."""

    windows: List[AvailabilityWindow]
    timeouts: int = 0
    aborts: int = 0
    rejections: int = 0
    retries: int = 0
    abandoned: int = 0


@dataclass
class FailoverSummary:
    """One configuration's behaviour through one crash/restart cycle."""

    configuration: str
    tier: str
    fault_start: float
    fault_end: float
    pre_goodput_ipm: float
    during_goodput_ipm: float
    post_goodput_ipm: float
    # Seconds from fault clearing until the first window back at
    # RECOVERY_FRACTION of the pre-fault goodput; None = never in run.
    recovery_time_s: Optional[float]
    timeouts: int = 0
    aborts: int = 0
    rejections: int = 0
    retries: int = 0
    abandoned: int = 0
    # True when the fault did not apply to this configuration (the tier
    # has no machine there) -- the containment case.
    contained: bool = False

    @property
    def post_over_pre(self) -> float:
        if self.pre_goodput_ipm <= 0:
            return 0.0
        return self.post_goodput_ipm / self.pre_goodput_ipm

    @property
    def during_over_pre(self) -> float:
        if self.pre_goodput_ipm <= 0:
            return 0.0
        return self.during_goodput_ipm / self.pre_goodput_ipm


def _mean_goodput(windows: List[AvailabilityWindow]) -> float:
    seconds = sum(w.duration for w in windows)
    if seconds <= 0:
        return 0.0
    return sum(w.completions for w in windows) * 60.0 / seconds


def summarize_failover(configuration: str, tier: str,
                       windows: List[AvailabilityWindow],
                       fault_start: float, fault_end: float,
                       stats, contained: bool = False) -> FailoverSummary:
    """Fold a window series + the fault timeline into a summary.

    ``stats`` is the population's :class:`ClientStats` over the whole
    measurement (for the error-rate breakdown).
    """
    pre = [w for w in windows if w.end <= fault_start]
    during = [w for w in windows if w.start >= fault_start
              and w.end <= fault_end]
    post = [w for w in windows if w.start >= fault_end]
    pre_ipm = _mean_goodput(pre)
    recovery: Optional[float] = None
    if pre_ipm > 0:
        for w in post:
            if w.goodput_ipm >= RECOVERY_FRACTION * pre_ipm:
                recovery = max(0.0, w.end - fault_end)
                break
    return FailoverSummary(
        configuration=configuration, tier=tier,
        fault_start=fault_start, fault_end=fault_end,
        pre_goodput_ipm=pre_ipm,
        during_goodput_ipm=_mean_goodput(during),
        post_goodput_ipm=_mean_goodput(post),
        recovery_time_s=recovery,
        timeouts=stats.timeouts, aborts=stats.aborts,
        rejections=stats.rejections, retries=stats.retries,
        abandoned=stats.abandoned, contained=contained)


@dataclass
class FailoverReport:
    """The ext_failover experiment's result: one summary per config."""

    title: str
    tier: str
    summaries: List[FailoverSummary] = field(default_factory=list)

    def render(self) -> str:
        def recover(s):
            if s.contained:
                return "n/a"
            if s.recovery_time_s is None:
                return "never"
            return f"{s.recovery_time_s:.0f}s"

        header, body = table((
            ("configuration", "<22", lambda s: s.configuration),
            ("pre", " >8.0f", lambda s: s.pre_goodput_ipm),
            ("during", " >8.0f", lambda s: s.during_goodput_ipm),
            ("post", " >8.0f", lambda s: s.post_goodput_ipm),
            ("recover", " >8", recover),
            ("timeout", "  >7", lambda s: s.timeouts),
            ("abort", " >6", lambda s: s.aborts),
            ("reject", " >6", lambda s: s.rejections),
            ("retry", " >6", lambda s: s.retries),
            ("lost", " >5", lambda s: s.abandoned),
        ), self.summaries)
        lines = [self.title, f"fault: crash of tier {self.tier!r}", "",
                 header, "-" * len(header)]
        lines += [line + ("  [not deployed: fault contained]"
                          if s.contained else "")
                  for s, line in zip(self.summaries, body)]
        lines.append("")
        lines.append("goodput in interactions/minute; pre / during / post "
                     "= before, while, and after the tier is down; "
                     "recover = time from restart back to "
                     f"{RECOVERY_FRACTION:.0%} of pre-fault goodput.")
        return "\n".join(lines)
