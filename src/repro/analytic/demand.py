"""Expected per-interaction service demands, per machine.

The demands are read from the simulator's own charges: each variant of
each interaction in the mix runs once, alone, through a private
:class:`repro.topology.simulation.SimulatedSite`.  On an otherwise idle
site a machine's CPU busy time is exactly the CPU the site charges it,
and its NIC counters hold the bytes it moved, so the charging rules
live in ``topology/simulation.py`` alone.  MVA and the operational
bounds stay the independent queueing model over these demands.

Only the six paper configurations are priced.  A one-request dry run
would put a whole pool's demand on the member its balancer picks first
and miss a replica's background log applier, so a clustered, cached or
sharded topology is refused rather than priced as its base shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.harness.profiles import AppProfile
from repro.sim.kernel import Simulator
from repro.topology.configs import Configuration, configuration_names
from repro.topology.simulation import SimulatedSite


@dataclass
class DemandTable:
    """Mean seconds of CPU and mean bytes through the NIC per
    interaction, both keyed by machine name."""

    config_name: str
    cpu_seconds: Dict[str, float] = field(default_factory=dict)
    nic_bytes: Dict[str, float] = field(default_factory=dict)

    def bottleneck(self) -> str:
        return max(self.cpu_seconds, key=self.cpu_seconds.get)

    def max_throughput(self) -> float:
        """Saturation throughput (interactions/second) from CPU demands."""
        return 1.0 / max(self.cpu_seconds.values())


def expected_demands(config: Configuration, profile: AppProfile,
                     mix: Dict[str, float],
                     ssl_interactions: frozenset = frozenset(),
                     **costs) -> DemandTable:
    """Mix-weighted mean demands per machine for one paper configuration.

    ``costs`` are :class:`SimulatedSite`'s cost keywords (``costs``,
    ``web_config``, ``php_costs``, ``servlet_costs``, ``ejb_costs``,
    ``ajp_costs``, ``rmi_costs``), passed straight through."""
    if config.name not in configuration_names():
        raise ValueError(f"expected_demands prices the six paper "
                         f"configurations only, not {config.name!r}")
    total_weight = sum(mix.values())
    table = DemandTable(config_name=config.name)
    cpu, nic = table.cpu_seconds, table.nic_bytes
    for name, weight in mix.items():
        variants = profile.profile(name).variants
        for variant in variants:
            sim = Simulator()
            site = SimulatedSite(sim, config, profile, ssl_interactions,
                                 **costs)
            sim.spawn(site._dispatch(variant, name, 0, random.Random(0)))
            sim.run()
            w = (weight / total_weight) / len(variants)
            for m, machine in site.machines.items():
                cpu[m] = cpu.get(m, 0.0) + w * machine.cpu.busy_time()
                nic[m] = nic.get(m, 0.0) + w * (machine.nic.bytes_sent +
                                                machine.nic.bytes_received)
    return table
