"""Open-loop experiment execution.

:func:`run_open_loop` is the open-loop twin of
:func:`repro.harness.experiment.run_experiment`: the same
:func:`~repro.harness.experiment.measure_point` phases, samplers and
:class:`~repro.metrics.report.ThroughputPoint` assembly (so cache and
shard records, and the traced verdict, come along) -- but driven by
an :class:`~repro.overload.openloop.OpenLoopPopulation` and carrying the
windowed SLO series as undeclared, picklable point attributes:
``point.slo`` (the :class:`~repro.metrics.slo.SloSummary` over stable
windows), ``point.slo_windows`` and ``point.overload_stats``
(``point.degradation`` is ``measure_point``'s, as for the closed loop).

``run_experiment`` delegates here when a spec carries an
``overload`` field, so sweeps, the parallel runner, and the CLI all
work unchanged.
"""

from __future__ import annotations

from repro.metrics.report import ThroughputPoint
from repro.metrics.slo import (
    SloSeries,
    SloSpec,
    percentile,
    select_stable_windows,
    summarize_slo,
)
from repro.overload.openloop import OpenLoopPopulation
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.workload.markov import choose_interaction


def run_open_loop(spec) -> ThroughputPoint:
    """Run one open-loop point (``spec.overload`` must be set)."""
    from repro.harness.experiment import build_site, measure_point

    if spec.overload is None:
        raise ValueError("run_open_loop needs an ExperimentSpec with "
                         "an OverloadSpec in .overload")
    sim = Simulator()
    site = build_site(sim, spec)
    slo_spec = spec.slo if spec.slo is not None else SloSpec()
    series = SloSeries(sim, slo_spec)
    population = OpenLoopPopulation(
        sim, spec.overload, spec.mix, site, RngStreams(spec.seed),
        choose_interaction, retry=spec.retry, slo=series)
    # Stop the open loop before ramp-down: unlike closed-loop clients,
    # sessions keep *arriving*, so an un-stopped drain never ends.
    point, stats, measure_end = measure_point(
        spec, sim, site, population, stop_before_ramp_down=True)

    windows = series.windows()
    stable = select_stable_windows(windows, horizon=measure_end)
    summary = summarize_slo(stable, slo_spec)
    # The per-window digests aggregate approximately across windows;
    # the population kept every successful latency sample, so make the
    # run-level percentiles exact.
    samples = [t for times in stats.response_times.values()
               for t in times]
    if samples:
        summary.p50 = percentile(samples, 0.50)
        summary.p95 = percentile(samples, 0.95)
        summary.p99 = percentile(samples, 0.99)

    point.slo = summary
    point.slo_windows = stable
    point.overload_stats = stats
    return point
