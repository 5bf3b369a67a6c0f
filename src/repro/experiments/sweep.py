"""What the five extension drivers share -- helpers they call, in the
order a driver uses them: look the scale level up, describe each table
row as a spec and a client grid, run every row's points as one
``run_points`` list, re-run a point traced.  (The table helper is
:func:`repro.metrics.report.table`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.parallel import run_points
from repro.metrics.report import ThroughputPoint

# Each application's headline mix: the ``DEFAULT_MIXES`` of the drivers
# that have no workload-specific choice of their own (``slo``, ``faults``).
HEADLINE_MIXES = {"bookstore": ("shopping",), "auction": ("bidding",),
                  "bboard": ("submission",)}


def scale_level(scales: dict, name: str):
    """``scales[name]``, or the error every driver gives for a typo."""
    if name not in scales:
        raise KeyError(f"unknown scale {name!r}; have {sorted(scales)}")
    return scales[name]


@dataclass
class SweepRow:
    """One row of a driver's table: ``spec`` run at each client count
    of ``grid``.  ``key`` is what the row varies (a replica count, a
    shard arm, an offered rate ...); ``bottleneck`` is the traced
    verdict, None if the row was not re-run traced."""

    key: object
    spec: ExperimentSpec
    grid: Tuple[int, ...]
    points: List[ThroughputPoint] = field(default_factory=list)
    bottleneck: Optional[str] = None

    @property
    def configuration(self) -> str:
        return self.spec.config.name

    @property
    def peak(self) -> ThroughputPoint:
        return max(self.points, key=lambda p: p.throughput_ipm)


def run_rows(rows: List[SweepRow], jobs: Optional[int]) -> List[SweepRow]:
    """Run every row's grid as one ``run_points`` list (so the pool
    balances across rows) and hand each row its points, in grid order."""
    points = iter(run_points([replace(row.spec, clients=clients)
                              for row in rows for clients in row.grid],
                             jobs))
    for row in rows:
        row.points = [next(points) for __ in row.grid]
    return rows


def traced(spec: ExperimentSpec, clients: int) -> ThroughputPoint:
    """``spec`` at ``clients`` again with request tracing on; in-process,
    because span aggregates stay with the simulator that made them."""
    return run_experiment(replace(spec, clients=clients, trace=True))

