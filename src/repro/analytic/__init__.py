"""Analytic performance models: service demands and closed-network MVA.

The service demands are read from the simulator's own charges (one
request at a time on an idle site); MVA and the operational bounds are
the independent queueing model over them.  For workloads without lock
contention the DES and MVA must agree (a consistency test enforces
this), and demand tables explain *why* each configuration saturates
where it does.
"""

from repro.analytic.bounds import OperationalBounds, bounds_for
from repro.analytic.demand import DemandTable, expected_demands
from repro.analytic.mva import MvaResult, solve_mva, throughput_curve

__all__ = ["DemandTable", "expected_demands", "MvaResult", "solve_mva",
           "throughput_curve", "OperationalBounds", "bounds_for"]
