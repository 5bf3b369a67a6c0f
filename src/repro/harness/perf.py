"""The reduced bench grids: each figure's sweep cut down to seconds.

``tests/test_golden_fig05.py`` and the pytest benches under
``benchmarks/`` drive these, so both run the identical workload.  Wall
clock and kernel-rate tracking live in ``benchmarks/suite/`` (the
benchmark of record).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.harness.experiment import ExperimentSpec, Phases, point_spec
from repro.topology.configs import ALL_CONFIGURATIONS

# Shorter-than-quick phases tuned so each figure bench finishes in
# seconds while still reaching steady state at the reduced client counts.
BENCH_PHASES: Dict[str, Phases] = {
    "bookstore": Phases(300.0, 300.0, 5.0),
    "auction": Phases(90.0, 120.0, 5.0),
}

# Reduced client grids per figure id (throughput figure ids only).
BENCH_GRIDS: Dict[str, Dict[str, tuple]] = {
    "fig05": {"default": (300, 1000), "ejb": (100, 300)},
    "fig07": {"default": (200, 700), "ejb": (60, 150)},
    "fig09": {"default": (800, 2200), "ejb": (150, 400)},
    "fig11": {"default": (700, 1400), "ejb": (250, 550)},
    "fig13": {"default": (1500, 5000), "ejb": (150, 400)},
}


def build_bench_specs(figure,
                      configurations: Optional[Tuple[str, ...]] = None) \
        -> Tuple[Dict[str, ExperimentSpec], Dict[str, tuple]]:
    """One figure's bench grid as ``(specs, client grids)`` per
    configuration name -- the two arguments ``run_figure`` takes.

    ``figure`` is the registry's ``FigureSpec`` (read here:
    ``throughput_figure``, ``app_name``, ``mix_name``).
    """
    grids = BENCH_GRIDS[figure.throughput_figure]
    phases = BENCH_PHASES[figure.app_name]
    todo = configurations or tuple(c.name for c in ALL_CONFIGURATIONS)
    specs = {}
    counts = {}
    for config in ALL_CONFIGURATIONS:
        if config.name in todo:
            specs[config.name] = point_spec(
                figure.app_name, figure.mix_name, config, 1, phases)
            counts[config.name] = grids[
                "ejb" if config.flavor == "ejb" else "default"]
    return specs, counts
