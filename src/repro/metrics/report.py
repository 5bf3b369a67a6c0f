"""Experiment result structures and text rendering.

The figure-regeneration harness prints the same artifacts the paper
shows: throughput-vs-clients series (Figures 5, 7, 9, 11, 13) and
per-machine CPU-utilization bars at the peak (Figures 6, 8, 10, 12, 14).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_COLUMN = re.compile(r"( *)([<>][0-9]+)(.*)")


def table(columns: Iterable[Tuple[str, str, Callable]], rows: Iterable) \
        -> Tuple[str, List[str]]:
    """``(header, lines)`` of a fixed-width text table, one line per row.

    A column is ``(title, spec, cell)``.  ``spec`` declares the column
    once, for its header and its cells alike: leading spaces are the
    gap before the column, then alignment and width, then the cells'
    number format -- ``"  >9.0f"`` is two spaces, right-aligned in
    nine, cells without decimals.  ``cell(row)`` is the value."""
    parts = [(title, *_COLUMN.fullmatch(spec).groups(), cell)
             for title, spec, cell in columns]
    header = "".join(f"{gap}{title:{align}}"
                     for title, gap, align, __, __ in parts)
    return header, ["".join(f"{gap}{cell(row):{align}{kind}}"
                            for __, gap, align, kind, cell in parts)
                    for row in rows]


@dataclass
class CpuUtilization:
    """Per-role CPU utilization (fractions in [0, 1])."""

    web_server: float = 0.0
    database: float = 0.0
    servlet_container: Optional[float] = None
    ejb_server: Optional[float] = None

    def as_row(self) -> dict:
        row = {"WebServer": round(100 * self.web_server, 1),
               "Database": round(100 * self.database, 1)}
        if self.servlet_container is not None:
            row["Servlet Container"] = round(100 * self.servlet_container, 1)
        if self.ejb_server is not None:
            row["EJB Server"] = round(100 * self.ejb_server, 1)
        return row


@dataclass
class ThroughputPoint:
    """One (clients, throughput) observation."""

    clients: int
    throughput_ipm: float           # interactions per minute
    cpu: CpuUtilization = field(default_factory=CpuUtilization)
    mean_response_time: float = 0.0
    web_nic_tx_mbps: float = 0.0
    # Mean virtual seconds spent waiting for locks, per interaction
    # completed in the window (database table locks vs container locks).
    db_lock_wait_per_interaction: float = 0.0
    sync_lock_wait_per_interaction: float = 0.0
    # WIRT compliance report (set when the spec declares limits).
    wirt: Optional[object] = None
    # Kernel events (process resumptions) the run consumed -- fully
    # deterministic under pinned seeds; the perf harness divides by
    # wall-clock for its events/sec figure.
    kernel_events: int = 0
    # Trace-derived bottleneck verdict (e.g. "db cpu 98%"); None unless
    # the run was traced (repro.obs).  Traced points additionally carry
    # undeclared ``tracer`` / ``bottleneck_report`` attributes.
    bottleneck: Optional[str] = None


@dataclass
class ConfigurationSeries:
    """A full throughput-vs-clients curve for one configuration."""

    configuration: str
    points: List[ThroughputPoint] = field(default_factory=list)

    def peak(self) -> ThroughputPoint:
        if not self.points:
            raise ValueError(f"no points for {self.configuration}")
        return max(self.points, key=lambda p: p.throughput_ipm)

    def add(self, point: ThroughputPoint) -> None:
        self.points.append(point)


@dataclass
class ExperimentReport:
    """Everything one figure needs: series per configuration."""

    title: str
    workload: str
    series: Dict[str, ConfigurationSeries] = field(default_factory=dict)

    def series_for(self, configuration: str) -> ConfigurationSeries:
        if configuration not in self.series:
            self.series[configuration] = ConfigurationSeries(configuration)
        return self.series[configuration]

    def render_throughput_table(self) -> str:
        """The throughput figure as a text table (clients as rows)."""
        configs = list(self.series)
        clients = sorted({p.clients for s in self.series.values()
                          for p in s.points})
        lines = [self.title, f"workload: {self.workload}", ""]
        header = ["clients"] + configs
        lines.append("  ".join(f"{h:>22}" for h in header))
        for count in clients:
            row = [f"{count:>22}"]
            for config in configs:
                match = [p for p in self.series[config].points
                         if p.clients == count]
                row.append(f"{match[0].throughput_ipm:>22.0f}"
                           if match else " " * 22)
            lines.append("  ".join(row))
        lines.append("")
        lines.append("peaks:")
        for config in configs:
            peak = self.series[config].peak()
            lines.append(f"  {config:<24} {peak.throughput_ipm:8.0f} ipm "
                         f"at {peak.clients} clients")
        return "\n".join(lines)

    def render_cpu_table(self) -> str:
        """The CPU-utilization figure (at each configuration's peak)."""
        lines = [f"{self.title} -- CPU utilization at peak throughput",
                 f"workload: {self.workload}", ""]
        roles = ["WebServer", "Database", "Servlet Container", "EJB Server"]
        header = ["configuration"] + roles
        lines.append("  ".join(f"{h:>20}" for h in header))
        for config, series in self.series.items():
            peak = series.peak()
            row = peak.cpu.as_row()
            cells = [f"{config:>20}"]
            for role in roles:
                value = row.get(role)
                cells.append(f"{value:>20.1f}" if value is not None
                             else " " * 20)
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def peaks(self) -> Dict[str, ThroughputPoint]:
        return {config: series.peak()
                for config, series in self.series.items()}

    def to_csv(self) -> str:
        """The full sweep as CSV (one row per configuration x point)."""
        lines = ["configuration,clients,throughput_ipm,"
                 "mean_response_time_s,cpu_web,cpu_db,cpu_servlet,"
                 "cpu_ejb,web_nic_tx_mbps"]
        for config, series in self.series.items():
            for p in sorted(series.points, key=lambda p: p.clients):
                servlet = "" if p.cpu.servlet_container is None \
                    else f"{p.cpu.servlet_container:.4f}"
                ejb = "" if p.cpu.ejb_server is None \
                    else f"{p.cpu.ejb_server:.4f}"
                lines.append(
                    f"{config},{p.clients},{p.throughput_ipm:.1f},"
                    f"{p.mean_response_time:.3f},{p.cpu.web_server:.4f},"
                    f"{p.cpu.database:.4f},{servlet},{ejb},"
                    f"{p.web_nic_tx_mbps:.2f}")
        return "\n".join(lines)

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        from pathlib import Path
        Path(path).write_text(self.to_csv() + "\n")
