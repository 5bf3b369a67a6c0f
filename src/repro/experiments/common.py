"""Shared machinery for figure experiments: grids, phases, runs, findings.

The declarative figure entries themselves (BOOKSTORE_SHOPPING, ...) live
in :mod:`repro.experiments.registry`; this module holds the engine that
interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.harness.experiment import Phases, point_spec, run_figure
from repro.metrics.report import ExperimentReport, ThroughputPoint, table
from repro.topology.configs import ALL_CONFIGURATIONS

# The paper's phases are 1/20/1 min (bookstore) and 5/30/5 min (auction).
# Because simulated response times grow long past saturation, ramp-up is
# what actually needs to be generous; these defaults were validated to
# reach steady state on every grid point.
PAPER_PHASES = {"bookstore": Phases(500.0, 1200.0, 30.0),
                "auction": Phases(300.0, 1800.0, 30.0),
                "bboard": Phases(300.0, 1800.0, 30.0)}
QUICK_PHASES = {"bookstore": Phases(400.0, 450.0, 10.0),
                "auction": Phases(120.0, 180.0, 10.0),
                "bboard": Phases(120.0, 180.0, 10.0)}


@dataclass(frozen=True)
class Finding:
    """A claim the paper makes about a figure pair, the paper's value, the
    configurations the claim reads, and ``measure(peaks)`` -> ``(measured
    text, holds)`` on the sweep's peak point per configuration."""

    claim: str
    paper: str
    needs: Tuple[str, ...]
    measure: Callable[[Dict[str, ThroughputPoint]], Tuple[str, bool]]


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one throughput/CPU figure pair."""

    throughput_figure: str          # e.g. "fig05"
    cpu_figure: str                 # e.g. "fig06"
    title: str
    app_name: str
    mix_name: str
    # Client grids: per configuration name, (quick grid, full grid).
    grids: Dict[str, Tuple[tuple, tuple]] = field(default_factory=dict)
    findings: Tuple[Finding, ...] = ()

    def grid_for(self, config_name: str, full: bool) -> tuple:
        quick, complete = self.grids[config_name]
        return complete if full else quick


def render_findings(spec: FigureSpec, report: ExperimentReport) -> str:
    """The pair's findings table, without rows for configurations not run."""
    peaks = report.peaks()
    rows = [(finding, *finding.measure(peaks)) for finding in spec.findings
            if set(finding.needs) <= set(peaks)]
    header, lines = table((
        ("finding", "<58", lambda row: row[0].claim),
        ("paper", "  <50", lambda row: row[0].paper),
        ("measured", "  <26", lambda row: row[1]),
        ("status", "  <5", lambda row: "holds" if row[2] else "FAILS")),
        rows)
    return "\n".join(["paper findings at each configuration's peak:",
                      header, *lines])


CONFIGS = tuple(c.name for c in ALL_CONFIGURATIONS)
NON_EJB = tuple(c.name for c in ALL_CONFIGURATIONS if c.flavor != "ejb")
EVERY = {CONFIGS: "every configuration",
         NON_EJB: "every non-EJB configuration"}


def faster(fast: str, slow: str, paper: str, by: float = 1.0,
           role: Optional[str] = None) -> Finding:
    """``fast``'s peak throughput -- or its ``role`` CPU at the peak, a
    column of the CPU figure -- above ``by`` times ``slow``'s."""
    def value(point):
        return point.cpu.as_row()[role] if role else point.throughput_ipm

    def measure(peaks):
        ratio = value(peaks[fast]) / value(peaks[slow])
        return f"{ratio:.2f}x", ratio > by
    what = f"{role} CPU" if role else "peak"
    times = f"{by:g}x " if by != 1 else ""
    return Finding(f"{fast} {what} > {times}{slow}", paper, (fast, slow),
                   measure)


def ranks(name: str, paper: str, highest: bool = False,
          aside: Optional[str] = None) -> Finding:
    """``name``'s peak is the lowest (or highest) of every configuration
    but ``aside``."""
    def measure(peaks):
        mine = peaks[name].throughput_ipm
        edge = (max if highest else min)(
            peaks[other].throughput_ipm for other in CONFIGS
            if other not in (name, aside))
        return f"{mine:.0f} vs {edge:.0f} ipm", (mine >= edge) == highest
    among = tuple(other for other in CONFIGS if other != aside)
    return Finding(f"{name} peak {'highest' if highest else 'lowest'}"
                   + (f" bar {aside}" if aside else ""), paper, among,
                   measure)


def within(factor: float, paper: str) -> Finding:
    """The non-EJB configurations' peaks lie within ``factor``."""
    def measure(peaks):
        values = [peaks[name].throughput_ipm for name in NON_EJB]
        return (f"{max(values) / min(values):.2f}x",
                max(values) < factor * min(values))
    return Finding(f"non-EJB peaks within {factor:g}x", paper, NON_EJB,
                   measure)


def cpu(role: str, paper: str, bound: float,
        among: Tuple[str, ...] = CONFIGS, above: bool = True,
        lead: bool = False) -> Finding:
    """``role`` CPU at the peak (a CPU figure column), or with ``lead`` its
    lead on the next busiest machine, above (or below) ``bound`` percent
    on every configuration of ``among``; measured is the worst one."""
    def value(point):
        use = point.cpu.as_row()
        return use.pop(role) - max(use.values()) if lead else use[role]

    def measure(peaks):
        values = {name: value(peaks[name]) for name in among}
        worst = (min if above else max)(values, key=values.get)
        return (f"{values[worst]:.1f}% ({worst})",
                values[worst] > bound if above else values[worst] < bound)
    what = f"{role} CPU" + (" leads the rest by" if lead else "")
    return Finding(f"{what} {'>' if above else '<'} {bound:g}% on "
                   f"{EVERY.get(among, among[0])}", paper, among, measure)


def _grids(main_quick, main_full, ejb_quick, ejb_full) -> Dict[str, tuple]:
    grids = {}
    for config in ALL_CONFIGURATIONS:
        if config.flavor == "ejb":
            grids[config.name] = (ejb_quick, ejb_full)
        else:
            grids[config.name] = (main_quick, main_full)
    return grids


def build_figure_specs(spec: FigureSpec, full: bool = False,
                       configurations: Optional[tuple] = None,
                       phases: Optional[Phases] = None):
    """Materialize one figure's (specs, client grids) per configuration.

    Shared by :func:`run_figure_spec` and the tracing CLI, which needs
    the per-configuration ExperimentSpec to re-run individual points.
    """
    if phases is None:
        phases = (PAPER_PHASES if full else QUICK_PHASES)[spec.app_name]
    todo = configurations or CONFIGS
    specs_by_config = {
        config.name: point_spec(spec.app_name, spec.mix_name, config, 1,
                                phases)
        for config in ALL_CONFIGURATIONS if config.name in todo}
    counts_by_config = {name: spec.grid_for(name, full)
                        for name in specs_by_config}
    return specs_by_config, counts_by_config


def run_figure_spec(spec: FigureSpec, full: bool = False,
                    configurations: Optional[tuple] = None,
                    phases: Optional[Phases] = None,
                    jobs: Optional[int] = None) -> ExperimentReport:
    """Run the sweep behind one figure pair."""
    specs_by_config, counts_by_config = build_figure_specs(
        spec, full=full, configurations=configurations, phases=phases)
    return run_figure(
        title=spec.title,
        workload=f"{spec.app_name}/{spec.mix_name}",
        specs_by_config=specs_by_config,
        client_counts_by_config=counts_by_config, jobs=jobs)
