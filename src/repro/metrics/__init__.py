"""Measurement: the sysstat-like sampler, experiment reports, the
windowed SLO series every point that declares an SLO records, and the
failover summary the fault-injection experiments fold it into."""

from repro.metrics.availability import (
    FailoverReport,
    FailoverSummary,
    summarize_failover,
)
from repro.metrics.sampler import MachineSample, SysstatSampler
from repro.metrics.report import CpuUtilization, ExperimentReport, ThroughputPoint
from repro.metrics.slo import (
    SloSeries,
    SloSpec,
    SloSummary,
    SloWindow,
    select_stable_windows,
    summarize_slo,
    time_to_recover,
)

__all__ = ["SysstatSampler", "MachineSample", "ExperimentReport",
           "CpuUtilization", "ThroughputPoint", "FailoverReport",
           "FailoverSummary", "summarize_failover", "SloSpec", "SloWindow",
           "SloSeries", "SloSummary", "select_stable_windows",
           "summarize_slo", "time_to_recover"]
