"""Overload resilience: open-loop traffic, backpressure, degradation.

The paper's workload is closed-loop and therefore *cannot* overload the
site; this package adds everything overload needs -- open-loop arrival
processes and heavy-tailed think times (:mod:`~repro.overload.arrivals`),
the open-loop session population (:mod:`~repro.overload.openloop`), the
graceful-degradation layer of bounded tier queues, a DB circuit breaker
and priority load shedding (:mod:`~repro.overload.degradation`).  An
open-loop point runs through the one runner,
:func:`repro.harness.experiment.run_experiment`, which builds the
open-loop population when a spec carries an ``overload`` field; the
windowed SLO series it records lives in :mod:`repro.metrics.slo`.

Everything is opt-in: a closed-loop run never imports this package, and
an installed-but-idle degradation layer adds no RNG draws and schedules
no simulator events.
"""

from repro.overload.arrivals import (
    AbandonmentSpec,
    FlashCrowdProfile,
    PoissonProfile,
    ThinkTimeModel,
)
from repro.overload.degradation import (
    DEFAULT_BROWSE_CLASS,
    BreakerPolicy,
    CircuitBreaker,
    DegradationPolicy,
    DegradationState,
    install_degradation,
)
from repro.overload.openloop import (
    OpenLoopPopulation,
    OpenLoopStats,
    OverloadSpec,
)

__all__ = [
    "PoissonProfile", "FlashCrowdProfile", "ThinkTimeModel",
    "AbandonmentSpec",
    "BreakerPolicy", "DegradationPolicy", "CircuitBreaker",
    "DegradationState", "install_degradation", "DEFAULT_BROWSE_CLASS",
    "OverloadSpec", "OpenLoopStats", "OpenLoopPopulation",
]
