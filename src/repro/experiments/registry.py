"""The figure registry: every paper figure as a declarative entry.

One :class:`~repro.experiments.common.FigureSpec` describes a
throughput/CPU figure pair completely -- application, interaction mix,
and per-configuration client grids -- so regenerating a figure is pure
interpretation: ``python -m repro figure 5`` (or ``fig05``, ``05``)
looks the spec up here and runs it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import (
    FigureSpec,
    _grids,
    run_figure_spec,
)
from repro.metrics.report import ExperimentReport

# -- declarative figure entries ------------------------------------------------

BOOKSTORE_SHOPPING = FigureSpec(
    throughput_figure="fig05", cpu_figure="fig06",
    title="Online bookstore throughput (interactions/minute), shopping mix",
    app_name="bookstore", mix_name="shopping",
    grids=_grids((200, 600, 1400), (100, 200, 400, 600, 1000, 1400),
                 (100, 350), (50, 100, 200, 350, 500)))

BOOKSTORE_BROWSING = FigureSpec(
    throughput_figure="fig07", cpu_figure="fig08",
    title="Online bookstore throughput (interactions/minute), browsing mix",
    app_name="bookstore", mix_name="browsing",
    grids=_grids((150, 400, 1000), (75, 150, 300, 600, 1000, 1400),
                 (60, 200), (30, 60, 120, 200, 300)))

BOOKSTORE_ORDERING = FigureSpec(
    throughput_figure="fig09", cpu_figure="fig10",
    title="Online bookstore throughput (interactions/minute), ordering mix",
    app_name="bookstore", mix_name="ordering",
    grids=_grids((600, 1500, 3000), (300, 600, 1000, 1500, 2200, 3000),
                 (150, 500), (75, 150, 300, 500, 800)))

AUCTION_BIDDING = FigureSpec(
    throughput_figure="fig11", cpu_figure="fig12",
    title="Auction site throughput (interactions/minute), bidding mix",
    app_name="auction", mix_name="bidding",
    grids=_grids((400, 1100, 1600), (200, 400, 700, 1100, 1400, 1700),
                 (200, 600), (100, 200, 350, 500, 700)))

AUCTION_BROWSING = FigureSpec(
    throughput_figure="fig13", cpu_figure="fig14",
    title="Auction site throughput (interactions/minute), browsing mix",
    app_name="auction", mix_name="browsing",
    grids=_grids((800, 2500, 7000), (500, 1000, 2500, 5000, 8000, 12000),
                 (200, 600), (100, 250, 400, 600)))

ALL_FIGURE_SPECS = (BOOKSTORE_SHOPPING, BOOKSTORE_BROWSING,
                    BOOKSTORE_ORDERING, AUCTION_BIDDING, AUCTION_BROWSING)

# Extension (not a paper figure): the bulletin-board benchmark the paper
# predicts would behave like the auction site.  Used by
# repro.experiments.ext_bboard.
BBOARD_SUBMISSION = FigureSpec(
    throughput_figure="extB1", cpu_figure="extB2",
    title="Bulletin board throughput (interactions/minute), submission mix "
          "(extension)",
    app_name="bboard", mix_name="submission",
    grids=_grids((400, 1100, 1600), (200, 400, 700, 1100, 1400, 1700),
                 (200, 600), (100, 200, 350, 500, 700)))

# figure id -> (spec, kind) where kind is "throughput" or "cpu".
FIGURES: Dict[str, Tuple[FigureSpec, str]] = {}
for _spec in ALL_FIGURE_SPECS:
    FIGURES[_spec.throughput_figure] = (_spec, "throughput")
    FIGURES[_spec.cpu_figure] = (_spec, "cpu")


def normalize_figure_id(figure_id: str) -> str:
    """Accept "5", "05", "fig5", and "fig05" alike; returns "fig05".

    Raises KeyError (listing valid ids) for anything not registered.
    """
    raw = str(figure_id).strip().lower()
    candidate = raw
    if candidate.startswith("fig"):
        candidate = candidate[3:]
    if candidate.isdigit():
        candidate = f"fig{int(candidate):02d}"
    else:
        candidate = raw
    if candidate in FIGURES:
        return candidate
    if raw in FIGURES:
        return raw
    raise KeyError(f"unknown figure {figure_id!r}; have "
                   f"{sorted(FIGURES)}")


def figure_spec(figure_id: str) -> FigureSpec:
    return FIGURES[normalize_figure_id(figure_id)][0]


def run_figure(figure_id: str, full: bool = False,
               configurations=None, jobs=None) -> ExperimentReport:
    """Run the sweep behind a figure and return its report."""
    spec = figure_spec(figure_id)
    return run_figure_spec(spec, full=full, configurations=configurations,
                           jobs=jobs)


def render_figure(figure_id: str, full: bool = False, jobs=None,
                  trace: bool = False, configurations=None) -> str:
    """The figure as printable text (throughput table or CPU bars).

    ``trace`` additionally re-runs each configuration's peak point with
    request-level tracing and appends the bottleneck attribution lines.
    ``configurations`` restricts the sweep to a subset of the six names.
    """
    figure_id = normalize_figure_id(figure_id)
    spec, kind = FIGURES[figure_id]
    report = run_figure_spec(spec, full=full, jobs=jobs,
                             configurations=configurations)
    text = report.render_cpu_table() if kind == "cpu" \
        else report.render_throughput_table()
    if trace:
        from repro.experiments.trace import render_figure_bottlenecks
        text += "\n\n" + render_figure_bottlenecks(
            figure_id, full=full, configurations=configurations)
    return text
