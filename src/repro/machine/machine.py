"""A machine bundles a CPU and a network interface."""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.cpu import Cpu
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class MachineSpec:
    """Static capacities of a server machine."""

    cpu_speed: float = 1.0          # relative to the paper's 1.33 GHz Athlon
    memory_mb: int = 768
    nic_bandwidth_bps: float = 100e6  # switched 100 Mbps Ethernet


def paper_machine_spec() -> MachineSpec:
    """The paper's server box: Athlon 1.33 GHz, 768 MB, 5400 rpm, 100 Mbps."""
    return MachineSpec()


class Machine:
    """A simulated host.  NICs are attached when the machine joins a LAN."""

    def __init__(self, sim: Simulator, name: str, spec: MachineSpec | None = None):
        self.sim = sim
        self.name = name
        self.spec = spec or paper_machine_spec()
        self.cpu = Cpu(sim, speed=self.spec.cpu_speed, name=f"{name}.cpu")
        # Set by Lan.attach().
        self.nic = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.name}>"
