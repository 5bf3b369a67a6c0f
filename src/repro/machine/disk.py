"""A simple disk model: FCFS queue, per-transfer seek plus streaming rate.

Disks are never the bottleneck in the paper's experiments (steady-state
I/O stays under 20 transfers/s), but the model exists so that the metrics
layer can report transfer rates and so that cold-cache effects (the
auction site's initial working-set load) can be exercised.
"""

from __future__ import annotations

from repro.sim.kernel import Simulator
from repro.sim.resources import Resource, safe_acquire


class Disk:
    """5400 rpm commodity disk by default (~9 ms access, ~35 MB/s)."""

    __slots__ = ("sim", "_res", "access_time", "transfer_rate",
                 "transfers", "bytes_moved", "name")

    def __init__(self, sim: Simulator, access_time: float = 0.009,
                 transfer_rate: float = 35e6, name: str = "disk"):
        self.sim = sim
        self._res = Resource(sim, capacity=1, name=name)
        self.access_time = access_time
        self.transfer_rate = transfer_rate
        self.transfers = 0
        self.bytes_moved = 0
        self.name = name

    def io(self, nbytes: int):
        """Process-style: one I/O of ``nbytes`` bytes."""
        if nbytes < 0:
            raise ValueError(f"negative I/O size: {nbytes}")
        yield from safe_acquire(self._res)
        try:
            yield self.access_time + nbytes / self.transfer_rate
            self.transfers += 1
            self.bytes_moved += nbytes
        finally:
            self._res.release()
