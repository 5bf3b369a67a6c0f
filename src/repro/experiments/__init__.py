"""Experiment drivers: the paper's figures and the extensions.

The figures of the paper's evaluation (Figures 5-14), and extb1 / extb2
for the bulletin board, are entries of :mod:`repro.experiments.registry`.
Throughput figures (5, 7, 9, 11, 13) and their CPU-utilization
companions (6, 8, 10, 12, 14) share one sweep and one findings table.

Run one from the command line::

    python -m repro figure 5            # quick grid
    python -m repro figure 5 --full     # paper-scale grid

or call :func:`repro.experiments.registry.run_figure`.
"""

from repro.experiments.registry import FIGURES, figure_spec, run_figure

__all__ = ["FIGURES", "figure_spec", "run_figure"]
