"""Interaction selection from a workload mix.

Both benchmarks draw the next interaction from a transition model whose
stationary distribution equals the mix's declared frequencies; with
memoryless rows (every state shares the same transition vector) the draw
reduces to sampling the frequencies directly, which is what the paper's
mixes specify (TPC-W tables give exactly these stationary percentages).
"""

from __future__ import annotations

import random
from typing import Dict


def choose_interaction(mix: Dict[str, float], rng: random.Random) -> str:
    """Draw one interaction name proportionally to its mix weight."""
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("mix has no positive weights")
    pick = rng.random() * total
    acc = 0.0
    for name, weight in mix.items():
        acc += weight
        if pick <= acc:
            return name
    return next(reversed(mix))
