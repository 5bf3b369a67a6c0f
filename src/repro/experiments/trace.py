"""Trace figure points and attribute their bottlenecks.

The library behind ``python -m repro trace <figure> [--config NAME]
[--clients N]`` and ``figure NN --trace``: re-run one or more points of
a registered figure with request-level tracing (:mod:`repro.obs`)
switched on.  By default every configuration is traced at its
*peak-throughput* client count -- the sweep behind the figure runs
first (optionally parallel) to find the peaks, and only the peak points
are re-run serially with tracing.

The command's optional artifacts: ``--chrome PATH`` writes the retained
span trees as Chrome trace-event JSON (load in ``chrome://tracing`` /
Perfetto), and ``--flame`` prints a text flame summary of where virtual
time went.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import build_figure_specs
from repro.experiments.registry import FIGURES, normalize_figure_id
from repro.experiments.sweep import traced
from repro.metrics.report import ExperimentReport, ThroughputPoint
from repro.obs import render_report


def trace_figure_point(figure_id: str, config_name: str, clients: int,
                       full: bool = False) -> ThroughputPoint:
    """Re-run one figure grid point with tracing on.

    The traced re-run is always serial -- span aggregation lives in the
    simulator process.  The returned point carries ``bottleneck``
    (verdict string), ``bottleneck_report`` and ``tracer`` attributes.
    """
    spec, __ = FIGURES[normalize_figure_id(figure_id)]
    specs_by_config, __ = build_figure_specs(spec, full=full)
    return traced(specs_by_config[config_name], clients)


def trace_figure_peaks(figure_id: str, report: ExperimentReport,
                       full: bool = False) -> Dict[str, ThroughputPoint]:
    """Trace each configuration of ``report``, the figure's sweep, at its
    peak point."""
    return {name: trace_figure_point(figure_id, name, series.peak().clients,
                                     full=full)
            for name, series in report.series.items()}


def render_figure_bottlenecks(figure_id: str, report: ExperimentReport,
                              full: bool = False) -> str:
    """Bottleneck-attribution text for every configuration's peak.

    This is what ``--trace`` on the figure CLI appends below the
    figure and its findings.
    """
    points = trace_figure_peaks(figure_id, report, full=full)
    lines = [f"bottleneck attribution at peak throughput "
             f"({normalize_figure_id(figure_id)})"]
    for config_name, point in points.items():
        lines.append("")
        lines.append(render_report(point.bottleneck_report))
    return "\n".join(lines)
