"""Open-loop arrival processes and heavy-tailed think-time models.

The paper's workload is closed-loop: N emulated browsers, each waiting
for its response before thinking again, so offered load can never exceed
what the clients generate and overload is impossible by construction.
Real overload is open-loop -- sessions arrive at a rate the site does
not control.  This module provides the rate processes:

``PoissonProfile``     constant-rate Poisson arrivals.
``FlashCrowdProfile``  baseline Poisson with a burst window at a
                       multiplied rate (a slashdotting).

All profiles are frozen dataclasses exposing ``arrivals(rng)``, a
generator of inter-arrival gaps.  Variable-rate profiles use
Lewis-Shedler thinning against the peak rate, so the draw sequence is a
pure function of (seed, profile) and runs are bit-reproducible.

Think times between a session's interactions can stay exponential (the
paper's 7 s) or go heavy-tailed -- lognormal or bounded Pareto -- which
is what measured browser dwell times look like and what makes flash
crowds hurt: a heavy tail keeps sessions alive long after the burst.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


# -- arrival-rate profiles ----------------------------------------------------

@dataclass(frozen=True)
class PoissonProfile:
    """Constant-rate Poisson session arrivals (``rate`` per second)."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def peak_rate(self) -> float:
        return self.rate

    def rate_at(self, t: float) -> float:
        return self.rate

    def arrivals(self, rng) -> Iterator[float]:
        """Yield inter-arrival gaps forever."""
        rate = self.rate
        while True:
            yield rng.expovariate(rate)


@dataclass(frozen=True)
class _VariableRateProfile:
    """Shared thinning machinery: subclasses define ``rate_at`` and
    ``peak_rate``; arrivals are Lewis-Shedler thinned against the peak,
    so every candidate costs exactly two draws regardless of shape."""

    def arrivals(self, rng) -> Iterator[float]:
        peak = self.peak_rate
        t = 0.0
        last = 0.0
        while True:
            t += rng.expovariate(peak)
            if rng.random() * peak <= self.rate_at(t):
                yield t - last
                last = t


@dataclass(frozen=True)
class FlashCrowdProfile(_VariableRateProfile):
    """Baseline Poisson rate with one burst window at ``multiplier``
    times the baseline -- the flash-crowd scenario."""

    base_rate: float
    burst_start: float
    burst_duration: float
    multiplier: float = 5.0

    def __post_init__(self):
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be positive, "
                             f"got {self.base_rate}")
        if self.burst_start < 0:
            raise ValueError(f"burst_start must be >= 0, "
                             f"got {self.burst_start}")
        if self.burst_duration <= 0:
            raise ValueError(f"burst_duration must be positive, "
                             f"got {self.burst_duration}")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, "
                             f"got {self.multiplier}")

    @property
    def burst_end(self) -> float:
        return self.burst_start + self.burst_duration

    @property
    def peak_rate(self) -> float:
        return self.base_rate * self.multiplier

    def rate_at(self, t: float) -> float:
        if self.burst_start <= t < self.burst_end:
            return self.base_rate * self.multiplier
        return self.base_rate


# -- think-time models --------------------------------------------------------

@dataclass(frozen=True)
class ThinkTimeModel:
    """Think-time distribution for open-loop sessions.

    ``exponential``  the paper's model (TPC-W clause 5.3.1.1).
    ``lognormal``    median ~ mean/e^(sigma^2/2); heavy-ish tail.
    ``pareto``       bounded Pareto with tail index ``alpha``; the
                     genuinely heavy tail measured for browser dwell.
    """

    distribution: str = "exponential"   # exponential | lognormal | pareto
    mean: float = 7.0
    sigma: float = 1.0                  # lognormal shape
    alpha: float = 1.5                  # pareto tail index
    cap: float = 600.0                  # bound on any single think time

    def __post_init__(self):
        if self.distribution not in ("exponential", "lognormal", "pareto"):
            raise ValueError(f"unknown think-time distribution "
                             f"{self.distribution!r}")
        if self.mean <= 0:
            raise ValueError(f"mean must be positive, got {self.mean}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must be > 1 (infinite mean below), "
                             f"got {self.alpha}")
        if self.cap <= 0:
            raise ValueError(f"cap must be positive, got {self.cap}")

    def draw(self, rng) -> float:
        if self.distribution == "exponential":
            value = rng.expovariate(1.0 / self.mean)
        elif self.distribution == "lognormal":
            # Parameterize by the desired mean: mu = ln(mean) - s^2/2.
            mu = math.log(self.mean) - 0.5 * self.sigma * self.sigma
            value = rng.lognormvariate(mu, self.sigma)
        else:
            # Pareto with x_min chosen so the unbounded mean equals
            # ``mean``: mean = x_min * alpha / (alpha - 1).
            x_min = self.mean * (self.alpha - 1.0) / self.alpha
            value = x_min * (1.0 - rng.random()) ** (-1.0 / self.alpha)
        return min(value, self.cap)


@dataclass(frozen=True)
class AbandonmentSpec:
    """Latency-triggered session abandonment: after any interaction
    slower than ``patience`` seconds (or any hard failure, when
    ``on_error``), the user gives up with probability ``probability``
    and the session ends -- overload sheds its own load, which is what
    makes open-loop goodput curves bend back down past the knee."""

    patience: float = 8.0
    probability: float = 0.5
    on_error: bool = True

    def __post_init__(self):
        if self.patience <= 0:
            raise ValueError(f"patience must be positive, "
                             f"got {self.patience}")
        if not 0 < self.probability <= 1:
            raise ValueError(f"probability must be in (0, 1], "
                             f"got {self.probability}")
