"""Benchmark support: reduced-grid figure runs with session caching.

The reduced grids and phases themselves live in
:mod:`repro.harness.perf` so ``tests/test_golden_fig05.py`` and these
pytest benches run the identical workload; this module adds the
pytest-session report cache.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.experiments.common import normalize_configurations
from repro.experiments.registry import FIGURES
from repro.harness.experiment import run_figure
from repro.harness.perf import build_bench_specs
from repro.metrics.report import ExperimentReport

__all__ = ["run_bench_figure"]


def run_bench_figure(figure_id: str, state: dict,
                     configurations: Optional[Tuple[str, ...]] = None,
                     jobs: Optional[int] = None) -> ExperimentReport:
    """Run (or fetch from the session cache) a reduced figure sweep.

    The cache key normalizes ``configurations`` (sorted + deduped), so
    permuted or repeated subsets hit the same entry instead of
    re-running the sweep.  ``jobs`` selects the sweep runner (parallel
    output is bit-identical to serial, so it is not part of the key).
    """
    spec, __ = FIGURES[figure_id]
    configurations = normalize_configurations(configurations)
    key = (spec.throughput_figure, configurations)
    if key in state:
        return state[key]
    specs_by_config, counts_by_config = build_bench_specs(
        spec, configurations)
    report = run_figure(
        title=spec.title + " [bench grid]",
        workload=f"{spec.app_name}/{spec.mix_name}",
        specs_by_config=specs_by_config,
        client_counts_by_config=counts_by_config, jobs=jobs)
    state[key] = report
    return report
