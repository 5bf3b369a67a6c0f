"""Shared fixtures for the figure-regeneration benchmarks.

Every bench runs a *reduced* grid (fewer client counts, shorter phases)
of the exact pipeline ``python -m repro figure NN`` uses, then
prints the same rows/series the paper's figure reports.  Use
``python -m repro figure NN --full`` for paper-scale grids.

Profiles and sweep reports are cached for the whole pytest session, so a
CPU-utilization bench reuses the sweep of its throughput sibling.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import BENCH_PHASES, bench_grids, run_bench_figure  # noqa: E402


@pytest.fixture(scope="session")
def bench_state():
    """Session-wide cache of profiles and reports."""
    return {}
