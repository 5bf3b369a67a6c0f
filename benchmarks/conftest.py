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
from pathlib import Path

import pytest

# The bench modules import ``benchlib`` by its bare name.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def bench_state():
    """Session-wide cache of profiles and reports."""
    return {}
