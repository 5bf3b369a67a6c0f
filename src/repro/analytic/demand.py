"""Expected per-interaction service demands, per machine.

Mirrors the charging rules of :class:`repro.topology.simulation.SimulatedSite`
analytically: for a (configuration, profile, mix) triple it computes the
mix-weighted mean CPU seconds each machine spends per interaction, and
the mean bytes each NIC moves.  ``tests/test_analytic.py`` locks the two
implementations together by comparing DES utilizations against these
demands at moderate load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.harness.profiles import AppProfile, InteractionVariant
from repro.middleware.ejb.container import EjbCosts
from repro.middleware.ejb.session import RmiCosts
from repro.middleware.phpmod.module import PhpCosts
from repro.middleware.servlet.ajp import AjpCosts
from repro.middleware.servlet.engine import ServletCosts
from repro.db.driver import (
    EJB_JDBC_OVERHEADS,
    JDBC_OVERHEADS,
    NATIVE_OVERHEADS,
)
from repro.topology.configs import Configuration
from repro.topology.simulation import SimCosts
from repro.web.server import WebServerConfig


@dataclass
class DemandTable:
    """Mean seconds of CPU per interaction, keyed by machine name, plus
    NIC byte flows keyed by (src, dst) machine names."""

    config_name: str
    cpu_seconds: Dict[str, float] = field(default_factory=dict)
    wire_bytes: Dict[tuple, float] = field(default_factory=dict)

    def add_cpu(self, machine: str, seconds: float) -> None:
        self.cpu_seconds[machine] = self.cpu_seconds.get(machine, 0.0) \
            + seconds

    def add_wire(self, src: str, dst: str, nbytes: float) -> None:
        if src == dst:
            return
        key = (src, dst)
        self.wire_bytes[key] = self.wire_bytes.get(key, 0.0) + nbytes

    def bottleneck(self) -> str:
        return max(self.cpu_seconds, key=self.cpu_seconds.get)

    def max_throughput(self) -> float:
        """Saturation throughput (interactions/second) from CPU demands."""
        return 1.0 / max(self.cpu_seconds.values())


def _variant_demand(table: DemandTable, config: Configuration,
                    variant: InteractionVariant, weight: float,
                    ssl: bool, web_cfg: WebServerConfig, php: PhpCosts,
                    servlet: ServletCosts, ejb: EjbCosts, ajp: AjpCosts,
                    rmi: RmiCosts, sim_costs: SimCosts) -> None:
    web = config.machine_of("web")
    gen = config.machine_of("gen")
    db = config.machine_of("db")
    ejb_machine = config.placement.get("ejb")
    db_client = ejb_machine if config.flavor == "ejb" else gen
    if config.flavor == "php":
        driver = NATIVE_OVERHEADS
    elif config.flavor == "ejb":
        driver = EJB_JDBC_OVERHEADS
    else:
        driver = JDBC_OVERHEADS
    w = weight

    # Web front end.
    web_cpu = (web_cfg.per_request_cpu +
               sim_costs.request_bytes * web_cfg.per_net_byte_cpu)
    if ssl:
        web_cpu += web_cfg.per_ssl_request_cpu
    web_cpu += (variant.response_bytes + variant.image_bytes) * \
        web_cfg.per_net_byte_cpu + \
        variant.image_count * web_cfg.per_static_hit_cpu
    table.add_cpu(web, w * web_cpu)
    table.add_wire("clients", web, w * (
        sim_costs.request_bytes +
        variant.image_count * sim_costs.image_request_bytes))
    table.add_wire(web, "clients",
                   w * (variant.response_bytes + variant.image_bytes))

    # Generator.
    if config.flavor == "php":
        table.add_cpu(gen, w * (
            php.per_request +
            variant.response_bytes * php.per_output_byte +
            variant.query_count * php.per_query_call))
    else:
        request_ipc = ajp.request_overhead_bytes + 80
        reply_ipc = ajp.reply_overhead_bytes + variant.response_bytes
        crossing = (2 * ajp.per_message +
                    (request_ipc + reply_ipc) * ajp.per_byte)
        table.add_cpu(web, w * crossing)
        table.add_cpu(gen, w * crossing)
        table.add_wire(web, gen, w * request_ipc)
        table.add_wire(gen, web, w * reply_ipc)
        gen_cpu = (servlet.per_request +
                   variant.response_bytes * servlet.per_output_byte)
        if config.flavor != "ejb":
            gen_cpu += variant.query_count * servlet.per_query_call
        table.add_cpu(gen, w * gen_cpu)

    # Steps.
    for step in variant.steps:
        kind = step[0]
        if kind == "query":
            __, db_cpu, request_bytes, reply_bytes, __r, __w, count = step
            table.add_cpu(db_client, w * (
                count * driver.per_call +
                reply_bytes * driver.per_result_byte))
            table.add_cpu(db, w * db_cpu)
            table.add_wire(db_client, db, w * request_bytes)
            table.add_wire(db, db_client, w * reply_bytes)
        elif kind in ("lock", "unlock"):
            table.add_cpu(db, w * sim_costs.db_lock_statement_cpu)
        elif kind == "sync_acquire":
            table.add_cpu(gen, w * len(step[1]) * servlet.per_sync_lock)
        elif kind == "rmi":
            __, request_bytes, reply_bytes = step
            each = (2 * rmi.per_call +
                    (request_bytes + reply_bytes) * rmi.per_byte)
            table.add_cpu(gen, w * each)
            table.add_cpu(ejb_machine, w * each)
            table.add_wire(gen, ejb_machine, w * request_bytes)
            table.add_wire(ejb_machine, gen, w * reply_bytes)
        elif kind == "ejb_work":
            __, loads, stores, fields = (step[0], step[1], step[2], step[3])
            table.add_cpu(ejb_machine, w * (
                ejb.per_method + loads * ejb.per_entity_load +
                stores * ejb.per_entity_store +
                fields * ejb.per_field_access))


def expected_demands(config: Configuration, profile: AppProfile,
                     mix: Dict[str, float],
                     ssl_interactions: frozenset = frozenset(),
                     web_cfg: WebServerConfig = None,
                     php: PhpCosts = None, servlet: ServletCosts = None,
                     ejb: EjbCosts = None, ajp: AjpCosts = None,
                     rmi: RmiCosts = None,
                     sim_costs: SimCosts = None) -> DemandTable:
    """Mix-weighted mean demands per machine for one configuration."""
    web_cfg = web_cfg or WebServerConfig()
    php = php or PhpCosts()
    servlet = servlet or ServletCosts()
    ejb = ejb or EjbCosts()
    ajp = ajp or AjpCosts()
    rmi = rmi or RmiCosts()
    sim_costs = sim_costs or SimCosts()
    total_weight = sum(mix.values())
    table = DemandTable(config_name=config.name)
    for name, weight in mix.items():
        interaction = profile.profile(name)
        if not interaction.variants:
            continue
        w = (weight / total_weight) / len(interaction.variants)
        for variant in interaction.variants:
            _variant_demand(table, config, variant, w,
                            name in ssl_interactions, web_cfg, php,
                            servlet, ejb, ajp, rmi, sim_costs)
    return table
