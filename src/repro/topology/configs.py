"""The six hardware/software configurations of the paper (Figure 4).

Machine roles: ``web`` (Apache), ``gen`` (the dynamic-content generator:
the PHP module or the servlet container), ``ejb`` (the EJB server, only
in C6), ``db`` (MySQL).  Roles may share a machine; PHP *must* share
with the web server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Configuration:
    """One deployment shape."""

    name: str
    flavor: str           # "php" | "servlet" | "servlet_sync" | "ejb"
    # role -> machine name; machines are created per distinct name.
    placement: Dict[str, str]

    def machine_names(self) -> List[str]:
        seen: List[str] = []
        for name in self.placement.values():
            if name not in seen:
                seen.append(name)
        return seen

    def machine_of(self, role: str) -> str:
        try:
            return self.placement[role]
        except KeyError:
            raise KeyError(
                f"configuration {self.name!r} has no {role!r} role") from None

    def colocated(self, role_a: str, role_b: str) -> bool:
        return self.placement.get(role_a) == self.placement.get(role_b)

    @property
    def profile_flavor(self) -> str:
        return self.flavor

    def deploy(self, app):
        """Deploy ``app`` in this configuration's middleware flavor.

        ``app`` is an application instance or a registry name
        ("bookstore", ...); names go through
        :func:`repro.apps.build_app`.  Returns what the flavor's
        deploy method returns (the (presentation, container) pair for
        the EJB configuration).
        """
        if isinstance(app, str):
            from repro.apps import build_app
            __, deployment = build_app(app, self.flavor)
            return deployment
        return app.deploy(self.flavor)


WS_PHP_DB = Configuration(
    name="WsPhp-DB", flavor="php",
    placement={"web": "web", "gen": "web", "db": "db"})

WS_SERVLET_DB = Configuration(
    name="WsServlet-DB", flavor="servlet",
    placement={"web": "web", "gen": "web", "db": "db"})

WS_SERVLET_DB_SYNC = Configuration(
    name="WsServlet-DB(sync)", flavor="servlet_sync",
    placement={"web": "web", "gen": "web", "db": "db"})

WS_SEP_SERVLET_DB = Configuration(
    name="Ws-Servlet-DB", flavor="servlet",
    placement={"web": "web", "gen": "servlet", "db": "db"})

WS_SEP_SERVLET_DB_SYNC = Configuration(
    name="Ws-Servlet-DB(sync)", flavor="servlet_sync",
    placement={"web": "web", "gen": "servlet", "db": "db"})

WS_SERVLET_EJB_DB = Configuration(
    name="Ws-Servlet-EJB-DB", flavor="ejb",
    placement={"web": "web", "gen": "servlet", "ejb": "ejb", "db": "db"})

ALL_CONFIGURATIONS: Tuple[Configuration, ...] = (
    WS_PHP_DB,
    WS_SERVLET_DB,
    WS_SERVLET_DB_SYNC,
    WS_SEP_SERVLET_DB,
    WS_SEP_SERVLET_DB_SYNC,
    WS_SERVLET_EJB_DB,
)


def configuration_by_name(name: str) -> Configuration:
    for config in ALL_CONFIGURATIONS:
        if config.name == name:
            return config
    raise KeyError(f"unknown configuration {name!r}; have "
                   f"{[c.name for c in ALL_CONFIGURATIONS]}")


def configuration_names() -> Tuple[str, ...]:
    """The paper configurations' names, for CLI validation and help."""
    return tuple(config.name for config in ALL_CONFIGURATIONS)
