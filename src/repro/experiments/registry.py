"""The figure registry: every paper figure as a declarative entry.

One :class:`~repro.experiments.common.FigureSpec` describes a
throughput/CPU figure pair completely -- application, interaction mix,
per-configuration client grids, and what the paper says about it (its
numbers from :data:`repro.harness.calibrate.PAPER_TARGETS`) -- so
regenerating and checking a figure is pure interpretation: ``python -m
repro figure 5`` (or ``fig05``, ``05``) looks the spec up here and runs it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments.common import (
    CONFIGS,
    FigureSpec,
    NON_EJB,
    _grids,
    cpu,
    faster,
    ranks,
    render_findings,
    run_figure_spec,
    within,
)
from repro.harness.calibrate import PAPER_TARGETS
from repro.metrics.report import ExperimentReport

PHP, SERVLET, SYNC, SEP, SEP_SYNC, EJB = CONFIGS


def _paper(app: str, mix: str):
    """The paper's targets for one workload, by configuration."""
    return {target.configuration: target for target in PAPER_TARGETS
            if (target.app, target.mix) == (app, mix)}


def _ratio(targets, fast: str, slow: str) -> str:
    return f"{targets[fast].peak_ipm / targets[slow].peak_ipm:.2f}x"


SHOPPING = _paper("bookstore", "shopping")
BIDDING = _paper("auction", "bidding")
# The auction's front-end-bound shape, predicted for the bulletin board.
FRONT_END_BOUND = (
    faster(PHP, SERVLET, _ratio(BIDDING, PHP, SERVLET)),
    ranks(EJB, f"{BIDDING[EJB].peak_ipm:.0f} ipm, the lowest"),
    cpu("WebServer", BIDDING[PHP].note, 85, (PHP,)))

# -- declarative figure entries ------------------------------------------------

BOOKSTORE_SHOPPING = FigureSpec(
    throughput_figure="fig05", cpu_figure="fig06",
    title="Online bookstore throughput (interactions/minute), shopping mix",
    app_name="bookstore", mix_name="shopping",
    grids=_grids((200, 600, 1400), (100, 200, 400, 600, 1000, 1400),
                 (100, 350), (50, 100, 200, 350, 500)),
    findings=(
        faster(SYNC, SERVLET, _ratio(SHOPPING, SYNC, SERVLET), by=0.99),
        ranks(EJB, SHOPPING[EJB].note),
        cpu("Database", "saturated with sync, lock-capped without", 80)))

BOOKSTORE_BROWSING = FigureSpec(
    throughput_figure="fig07", cpu_figure="fig08",
    title="Online bookstore throughput (interactions/minute), browsing mix",
    app_name="bookstore", mix_name="browsing",
    grids=_grids((150, 400, 1000), (75, 150, 300, 600, 1000, 1400),
                 (60, 200), (30, 60, 120, 200, 300)),
    findings=(
        within(1.8, "all equal: read-only, no locks to relieve"),
        ranks(EJB, "lowest"),
        cpu("WebServer", "modest", 55, above=False),
        cpu("Database", "the bottleneck", 80, NON_EJB),
        cpu("Database", "the bottleneck", 60, (EJB,)),
        cpu("Database", "the bottleneck everywhere", 0, lead=True)))

BOOKSTORE_ORDERING = FigureSpec(
    throughput_figure="fig09", cpu_figure="fig10",
    title="Online bookstore throughput (interactions/minute), ordering mix",
    app_name="bookstore", mix_name="ordering",
    grids=_grids((600, 1500, 3000), (300, 600, 1000, 1500, 2200, 3000),
                 (150, 500), (75, 150, 300, 500, 800)),
    findings=(
        faster(SYNC, SERVLET, "the largest relative sync win", by=1.1),
        faster(SYNC, SERVLET, "saturated vs lock-capped", role="Database"),
        cpu("Database", "lock-capped near 60%", 90, (SERVLET,), above=False)))

AUCTION_BIDDING = FigureSpec(
    throughput_figure="fig11", cpu_figure="fig12",
    title="Auction site throughput (interactions/minute), bidding mix",
    app_name="auction", mix_name="bidding",
    grids=_grids((400, 1100, 1600), (200, 400, 700, 1100, 1400, 1700),
                 (200, 600), (100, 200, 350, 500, 700)),
    findings=(
        *FRONT_END_BOUND,
        faster(SEP, PHP, _ratio(BIDDING, SEP, PHP)),
        cpu("EJB Server", BIDDING[EJB].note, 85, (EJB,)),
        cpu("Database", "never the bottleneck", 90, above=False)))

AUCTION_BROWSING = FigureSpec(
    throughput_figure="fig13", cpu_figure="fig14",
    title="Auction site throughput (interactions/minute), browsing mix",
    app_name="auction", mix_name="browsing",
    grids=_grids((800, 2500, 7000), (500, 1000, 2500, 5000, 8000, 12000),
                 (200, 600), (100, 250, 400, 600)),
    findings=(
        faster(PHP, SERVLET, _paper("auction", "browsing")[PHP].note, by=1.1),
        ranks(SEP, "highest, as for bidding", highest=True, aside=SEP_SYNC),
        cpu("WebServer", "generator CPU saturated", 80, (PHP,)),
        cpu("EJB Server", "generator CPU saturated", 85, (EJB,))))

# Extension (not a paper figure): the bulletin-board benchmark the paper
# predicts would behave like the auction site.
BBOARD_SUBMISSION = FigureSpec(
    throughput_figure="extb1", cpu_figure="extb2",
    title="Bulletin board throughput (interactions/minute), submission mix "
          "(extension)",
    app_name="bboard", mix_name="submission",
    grids=_grids((400, 1100, 1600), (200, 400, 700, 1100, 1400, 1700),
                 (200, 600), (100, 200, 350, 500, 700)),
    findings=(
        *FRONT_END_BOUND,
        ranks(SEP, f"{BIDDING[SEP].peak_ipm:.0f} ipm, the highest",
              highest=True, aside=SEP_SYNC),
        cpu("Servlet Container", BIDDING[SEP].note, 85, (SEP,)),
        cpu("Database", "never the bottleneck", 60, (PHP,), above=False)))

ALL_FIGURE_SPECS = (BOOKSTORE_SHOPPING, BOOKSTORE_BROWSING,
                    BOOKSTORE_ORDERING, AUCTION_BIDDING, AUCTION_BROWSING,
                    BBOARD_SUBMISSION)

# figure id -> (spec, kind) where kind is "throughput" or "cpu".
FIGURES: Dict[str, Tuple[FigureSpec, str]] = {}
for _spec in ALL_FIGURE_SPECS:
    FIGURES[_spec.throughput_figure] = (_spec, "throughput")
    FIGURES[_spec.cpu_figure] = (_spec, "cpu")


def normalize_figure_id(figure_id: str) -> str:
    """Accept "5", "05", "fig5", and "fig05" alike, in any case -> "fig05".

    Raises KeyError (listing valid ids) for anything not registered.
    """
    raw = str(figure_id).strip().lower()
    number = raw[3:] if raw.startswith("fig") else raw
    candidate = f"fig{int(number):02d}" if number.isdigit() else raw
    if candidate in FIGURES:
        return candidate
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


def render_figure(figure_id: str, report: ExperimentReport,
                  full: bool = False, trace: bool = False) -> str:
    """The figure as printable text: the throughput table or the CPU
    bars of ``report`` (the pair's sweep), then the pair's findings.

    ``trace`` additionally re-runs each configuration's peak point with
    request-level tracing and appends the bottleneck attribution lines.
    """
    figure_id = normalize_figure_id(figure_id)
    spec, kind = FIGURES[figure_id]
    text = report.render_cpu_table() if kind == "cpu" \
        else report.render_throughput_table()
    text += "\n\n" + render_findings(spec, report)
    if trace:
        from repro.experiments.trace import render_figure_bottlenecks
        text += "\n\n" + render_figure_bottlenecks(figure_id, report,
                                                    full=full)
    return text
