"""Windowed SLO metrics for open-loop (offered-load) runs.

Closed-loop experiments need one throughput number; an overload run
needs the *shape over time*: per-window throughput and latency
percentiles, the fraction of windows violating a latency objective, and
goodput-vs-offered-load curves whose points come only from *stable*
windows (after warmup, before the final partial window).

Recording is event-driven -- :meth:`SloSeries.record` computes the
window index from the virtual clock -- so attaching a series schedules
no simulator events and draws no RNG: the machinery costs nothing when
unused and perturbs nothing when used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


def percentile(samples: List[float], fraction: float) -> Optional[float]:
    """The ``fraction`` percentile of ``samples`` (nearest-rank on the
    sorted list; ``ClientStats.percentile`` delegates here); None when
    there are no samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(fraction * len(ordered)) - 1))
    return ordered[index]


@dataclass(frozen=True)
class SloSpec:
    """The objective: latency bound (seconds) checked at a percentile,
    over fixed-width windows."""

    latency_bound: float = 2.0    # seconds; WIRT-style bound
    percentile: float = 0.95      # fraction of requests that must meet it
    window: float = 1.0           # window width, virtual seconds

    def __post_init__(self):
        if self.latency_bound <= 0:
            raise ValueError(f"latency_bound must be positive, "
                             f"got {self.latency_bound}")
        if not 0 < self.percentile < 1:
            raise ValueError(f"percentile must be in (0, 1), "
                             f"got {self.percentile}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")


@dataclass
class SloWindow:
    """One window's aggregates (latencies kept until :meth:`seal`)."""

    index: int
    start: float
    end: float
    completions: int = 0
    errors: int = 0
    arrivals: int = 0
    latencies: List[float] = field(default_factory=list)
    # Filled by seal():
    p50: Optional[float] = None
    p95: Optional[float] = None
    p99: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Completions per second in this window."""
        if self.duration <= 0:
            return 0.0
        return self.completions / self.duration

    @property
    def offered(self) -> float:
        """Arrivals per second in this window."""
        if self.duration <= 0:
            return 0.0
        return self.arrivals / self.duration

    def seal(self) -> None:
        """Compute the percentile digests and drop the raw samples."""
        self.p50 = percentile(self.latencies, 0.50)
        self.p95 = percentile(self.latencies, 0.95)
        self.p99 = percentile(self.latencies, 0.99)
        self.latencies = []

    def violates(self, spec: SloSpec) -> bool:
        """Whether this window misses the objective.  An empty window
        (no completions) violates only if requests arrived -- silence
        under offered load is an outage, idle silence is not."""
        if self.completions == 0:
            return self.arrivals > 0 or self.errors > 0
        bound = percentile(self.latencies, spec.percentile) \
            if self.latencies else self._sealed_percentile(spec.percentile)
        return bound is not None and bound > spec.latency_bound

    def _sealed_percentile(self, fraction: float) -> Optional[float]:
        if fraction <= 0.50:
            return self.p50
        if fraction <= 0.95:
            return self.p95
        return self.p99


class SloSeries:
    """Accumulates per-window aggregates as requests finish.

    The recorder never schedules events: each :meth:`record` call files
    the sample under ``int(now / window)``.  Windows with no traffic at
    all are materialized lazily on read (:meth:`windows`), so a long
    quiet stretch costs nothing.
    """

    def __init__(self, sim, spec: SloSpec):
        self.sim = sim
        self.spec = spec
        self._origin: Optional[float] = None
        self._by_index: Dict[int, SloWindow] = {}

    def start(self) -> None:
        """Anchor window 0 at the current virtual time (call this at
        begin_measurement)."""
        self._origin = self.sim.now

    def _window_at(self, now: float) -> SloWindow:
        origin = self._origin if self._origin is not None else 0.0
        width = self.spec.window
        index = max(0, int((now - origin) / width))
        win = self._by_index.get(index)
        if win is None:
            win = SloWindow(index=index, start=origin + index * width,
                            end=origin + (index + 1) * width)
            self._by_index[index] = win
        return win

    def record_arrival(self) -> None:
        self._window_at(self.sim.now).arrivals += 1

    def record(self, latency: float) -> None:
        """A request completed now, having taken ``latency`` seconds."""
        win = self._window_at(self.sim.now)
        win.completions += 1
        win.latencies.append(latency)

    def record_error(self) -> None:
        self._window_at(self.sim.now).errors += 1

    def windows(self) -> List[SloWindow]:
        """The contiguous, sealed window series from 0 to the highest
        touched index (gaps filled with empty windows).  Safe on an
        empty series and on runs shorter than one window."""
        if not self._by_index:
            return []
        origin = self._origin if self._origin is not None else 0.0
        width = self.spec.window
        top = max(self._by_index)
        out: List[SloWindow] = []
        for index in range(top + 1):
            win = self._by_index.get(index)
            if win is None:
                win = SloWindow(index=index, start=origin + index * width,
                                end=origin + (index + 1) * width)
                self._by_index[index] = win
            if win.latencies:
                win.seal()
            elif win.p50 is None and win.completions == 0:
                win.seal()
            out.append(win)
        return out


def select_stable_windows(windows: List[SloWindow], warmup: int = 0,
                          drop_last_partial: bool = True,
                          horizon: Optional[float] = None) -> List[SloWindow]:
    """The windows a load-curve point should aggregate over.

    Drops the first ``warmup`` windows (queues filling) and, when
    ``drop_last_partial``, a final window that ``horizon`` (the
    measurement end time) cuts short -- a partial tail understates
    throughput exactly like the availability-sampler bug this PR fixes.
    """
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    stable = list(windows[warmup:])
    if stable and drop_last_partial and horizon is not None \
            and stable[-1].end > horizon + 1e-9:
        stable.pop()
    return stable


@dataclass
class SloSummary:
    """One run folded against the objective."""

    spec: SloSpec
    windows_total: int = 0
    windows_violating: int = 0
    offered_per_s: float = 0.0
    goodput_per_s: float = 0.0
    error_per_s: float = 0.0
    p50: Optional[float] = None
    p95: Optional[float] = None
    p99: Optional[float] = None

    @property
    def violation_fraction(self) -> float:
        if self.windows_total == 0:
            return 0.0
        return self.windows_violating / self.windows_total

    @property
    def compliant_fraction(self) -> float:
        return 1.0 - self.violation_fraction


def summarize_slo(windows: List[SloWindow], spec: SloSpec) -> SloSummary:
    """Aggregate a (stable) window series into one summary.

    Percentiles are recomputed across all unsealed samples when
    available; for sealed windows they fall back to a completions-
    weighted mean of the per-window digests (the per-window numbers are
    already nearest-rank exact; the cross-window fold is the standard
    approximation)."""
    total = len(windows)
    violating = sum(1 for w in windows if w.violates(spec))
    seconds = sum(w.duration for w in windows)
    completions = sum(w.completions for w in windows)
    arrivals = sum(w.arrivals for w in windows)
    errors = sum(w.errors for w in windows)
    raw: List[float] = []
    for w in windows:
        raw.extend(w.latencies)
    if raw:
        p50 = percentile(raw, 0.50)
        p95 = percentile(raw, 0.95)
        p99 = percentile(raw, 0.99)
    else:
        p50 = _weighted_digest(windows, "p50")
        p95 = _weighted_digest(windows, "p95")
        p99 = _weighted_digest(windows, "p99")
    return SloSummary(
        spec=spec, windows_total=total, windows_violating=violating,
        offered_per_s=arrivals / seconds if seconds > 0 else 0.0,
        goodput_per_s=completions / seconds if seconds > 0 else 0.0,
        error_per_s=errors / seconds if seconds > 0 else 0.0,
        p50=p50, p95=p95, p99=p99)


def _weighted_digest(windows: List[SloWindow],
                     attr: str) -> Optional[float]:
    weight = 0
    total = 0.0
    for w in windows:
        value = getattr(w, attr)
        if value is not None and w.completions > 0:
            weight += w.completions
            total += value * w.completions
    if weight == 0:
        return None
    return total / weight


def time_to_recover(windows: List[SloWindow], spec: SloSpec,
                    disturbance_end: float,
                    settle: int = 3) -> Optional[float]:
    """Seconds from ``disturbance_end`` until the start of the first run
    of ``settle`` consecutive compliant windows; None if the run never
    re-settles.  Windows wholly before the disturbance end are ignored."""
    if settle < 1:
        raise ValueError(f"settle must be >= 1, got {settle}")
    streak = 0
    for w in windows:
        if w.end <= disturbance_end:
            continue
        if w.violates(spec):
            streak = 0
            continue
        streak += 1
        if streak >= settle:
            first = w.index - settle + 1
            origin = w.start - w.index * (w.end - w.start)
            start = origin + first * (w.end - w.start)
            return max(0.0, start - disturbance_end)
    return None
