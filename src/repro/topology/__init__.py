"""Deployment topologies: the paper's six configurations."""

from repro.topology.configs import (
    ALL_CONFIGURATIONS,
    Configuration,
    WS_PHP_DB,
    WS_SERVLET_DB,
    WS_SERVLET_DB_SYNC,
    WS_SEP_SERVLET_DB,
    WS_SEP_SERVLET_DB_SYNC,
    WS_SERVLET_EJB_DB,
    configuration_by_name,
)
from repro.topology.simulation import SimCosts, SimulatedSite
from repro.topology.spec import (
    GRAMMAR_HELP,
    TopologyConfiguration,
    TopologySpec,
    parse_topology,
    topology,
    validate_config_names,
)

__all__ = [
    "Configuration",
    "GRAMMAR_HELP",
    "TopologyConfiguration",
    "TopologySpec",
    "parse_topology",
    "topology",
    "validate_config_names",
    "ALL_CONFIGURATIONS",
    "WS_PHP_DB",
    "WS_SERVLET_DB",
    "WS_SERVLET_DB_SYNC",
    "WS_SEP_SERVLET_DB",
    "WS_SEP_SERVLET_DB_SYNC",
    "WS_SERVLET_EJB_DB",
    "configuration_by_name",
    "SimulatedSite",
    "SimCosts",
]
