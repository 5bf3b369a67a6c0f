"""A sysstat-like sampler.

The paper collects CPU, memory, network and disk usage every second with
sysstat and analyzes the files post-mortem; this sampler does the same in
virtual time for CPU and NIC, so utilization numbers come from the same
kind of windowed averages the paper reports.  Memory and disk are not
modelled: the paper reports that neither was ever the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.machine.machine import Machine
from repro.sim.kernel import Simulator


@dataclass
class MachineSample:
    """One per-second observation of one machine."""

    time: float
    cpu_utilization: float        # busy fraction over the last interval
    nic_tx_bps: float
    nic_rx_bps: float


@dataclass
class _State:
    busy: float = 0.0
    tx: int = 0
    rx: int = 0


class SysstatSampler:
    """Samples a set of machines every ``interval`` virtual seconds."""

    def __init__(self, sim: Simulator, machines: Dict[str, Machine],
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.machines = machines
        self.interval = interval
        self.samples: Dict[str, List[MachineSample]] = {
            name: [] for name in machines}
        self._last: Dict[str, _State] = {name: _State() for name in machines}
        self._proc = None

    def start(self) -> None:
        self._proc = self.sim.spawn(self._run(), name="sysstat")

    def _run(self):
        while True:
            yield self.interval
            self._take_sample()

    def _take_sample(self) -> None:
        for name, machine in self.machines.items():
            last = self._last[name]
            busy = machine.cpu.busy_time()
            nic = machine.nic
            tx = nic.bytes_sent if nic else 0
            rx = nic.bytes_received if nic else 0
            self.samples[name].append(MachineSample(
                time=self.sim.now,
                cpu_utilization=min(1.0, (busy - last.busy) / self.interval),
                nic_tx_bps=(tx - last.tx) * 8.0 / self.interval,
                nic_rx_bps=(rx - last.rx) * 8.0 / self.interval))
            last.busy = busy
            last.tx = tx
            last.rx = rx

    # -- post-mortem analysis ------------------------------------------------------

    def window(self, name: str, start: float,
               end: Optional[float] = None) -> List[MachineSample]:
        return [s for s in self.samples[name]
                if s.time > start and (end is None or s.time <= end)]

    def mean_cpu(self, name: str, start: float,
                 end: Optional[float] = None) -> float:
        window = self.window(name, start, end)
        if not window:
            return 0.0
        return sum(s.cpu_utilization for s in window) / len(window)

    def mean_nic_tx_mbps(self, name: str, start: float,
                         end: Optional[float] = None) -> float:
        window = self.window(name, start, end)
        if not window:
            return 0.0
        return sum(s.nic_tx_bps for s in window) / len(window) / 1e6
