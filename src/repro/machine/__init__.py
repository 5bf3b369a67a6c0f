"""Simulated hardware: machines with a CPU and a NIC.

The paper's testbed is four identical commodity boxes (1.33 GHz Athlon,
768 MB RAM, 5400 rpm disk) on switched 100 Mbps Ethernet; a
:class:`MachineSpec` captures those capacities and
:func:`paper_machine_spec` returns them.  Only the CPU and the NIC are
modelled: the paper reports that memory and disk were never the
bottleneck, and no request here reads or writes the disk.
"""

from repro.machine.cpu import Cpu
from repro.machine.machine import Machine, MachineSpec, paper_machine_spec

__all__ = ["Cpu", "Machine", "MachineSpec", "paper_machine_spec"]
