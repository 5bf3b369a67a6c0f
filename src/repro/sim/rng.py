"""Deterministic named random streams.

Every stochastic element of an experiment (think times, session lengths,
Markov transitions, data generation) draws from its own named stream so
that changing one element never perturbs the draws of another, and a
(seed, name) pair fully reproduces a run.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngStreams:
    """A factory of independent :class:`random.Random` streams."""

    def __init__(self, seed: int = 42):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def exponential(self, name: str, mean: float) -> float:
        """One draw from a negative-exponential distribution.

        TPC-W clauses 5.3.1.1 / 6.2.1.2 specify negative-exponential think
        and session times; both benchmarks use this helper.
        """
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        return self.stream(name).expovariate(1.0 / mean)
