"""Shared application wiring: one base class, three benchmarks.

Every benchmark application has the same shape: a populated
:class:`~repro.db.engine.Database`, a table of dynamic-page handlers
shared by the PHP and servlet deployments, an EJB deployment with its
own presentation pages, and a workload surface (interaction mixes,
request factories, per-client session state).  :class:`BenchmarkApp`
implements that shape once; the concrete apps (bookstore, auction,
bulletin board) supply declarative class attributes and override only
what genuinely differs (their static-content catalogues).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.middleware.ejb import EjbContainer
from repro.middleware.phpmod import PhpModule
from repro.middleware.servlet import ServletEngine
from repro.web.static import StaticContentStore
from repro.workload.markov import choose_interaction as _choose_interaction

# The four middleware architectures of the paper, by the names
# repro.topology.configs.Configuration.flavor uses.
ARCHITECTURES = ("php", "servlet", "servlet_sync", "ejb")


class BenchmarkApp:
    """Database + per-architecture deployments, driven by class attributes.

    Subclasses declare:

    ``name``                 the app's registry name ("bookstore", ...)
    ``SSL_INTERACTIONS``     interactions served over SSL (extra web CPU)
    ``INTERACTIONS``         name -> (page handler, read_only flag)
    ``STATIC_INTERACTIONS``  interactions served without touching the DB
    ``MIXES``                mix name -> {interaction: weight}
    ``MIX_LABEL``            human label for mix-lookup errors (optional)
    ``STATE_CLASS``          session state; ``from_database(db, rng)``
    ``MAKE_REQUEST``         staticmethod (name, rng, state) -> HttpRequest
    ``EJB_DEPLOYER``         staticmethod deploying beans into a container
    ``EJB_PAGES``            staticmethod container -> presentation pages
    ``EJB_LOAD_MODE``        the container's default entity-load mode
    """

    name = ""
    SSL_INTERACTIONS: frozenset = frozenset()
    INTERACTIONS: Dict[str, tuple] = {}
    STATIC_INTERACTIONS: frozenset = frozenset()
    MIXES: Dict[str, Dict[str, float]] = {}
    MIX_LABEL: Optional[str] = None
    STATE_CLASS = None
    MAKE_REQUEST = None
    EJB_DEPLOYER = None
    EJB_PAGES = None
    EJB_LOAD_MODE = "field"

    def __init__(self, database):
        self.database = database

    # -- page tables ---------------------------------------------------------------

    def shared_pages(self) -> Dict[str, object]:
        """The hand-written-SQL pages used by both PHP and servlets."""
        return {f"/{name}": handler
                for name, (handler, __) in self.INTERACTIONS.items()}

    # -- deployments ---------------------------------------------------------------

    def deploy_php(self) -> PhpModule:
        php = PhpModule(self.database)
        php.register_app(self.shared_pages())
        return php

    def deploy_servlet(self, sync_locking: bool = False) -> ServletEngine:
        engine = ServletEngine(self.database, sync_locking=sync_locking)
        engine.register_app(self.shared_pages())
        return engine

    def deploy_ejb(self, store_mode: str = "field",
                   load_mode: Optional[str] = None):
        """Returns (presentation ServletEngine, EjbContainer)."""
        if load_mode is None:
            load_mode = self.EJB_LOAD_MODE
        container = EjbContainer(self.database, store_mode=store_mode,
                                 load_mode=load_mode)
        self.EJB_DEPLOYER(container)
        presentation = ServletEngine(self.database, sync_locking=False)
        presentation.register_app(self.EJB_PAGES(container))
        return presentation, container

    def deploy(self, arch: str, **kwargs):
        """One deployment by architecture name (see ``ARCHITECTURES``).

        Returns what the matching ``deploy_*`` method returns: the
        middleware front end for php/servlet flavors, and the
        (presentation, container) pair for ``ejb``.  ``kwargs`` pass
        through (e.g. ``store_mode`` for the EJB container).
        """
        if arch == "php":
            return self.deploy_php(**kwargs)
        if arch == "servlet":
            return self.deploy_servlet(sync_locking=False, **kwargs)
        if arch == "servlet_sync":
            return self.deploy_servlet(sync_locking=True, **kwargs)
        if arch == "ejb":
            return self.deploy_ejb(**kwargs)
        raise ValueError(f"unknown architecture {arch!r}; "
                         f"have {list(ARCHITECTURES)}")

    def deploy_pool(self, arch: str, count: int, **kwargs) -> list:
        """``count`` independent deployments over the shared database.

        The functional counterpart of a load-balanced container pool
        (:mod:`repro.cluster`): each servlet engine / PHP module is its
        own process with private caches and its own sync-lock registry,
        all hitting one database.
        """
        if count < 1:
            raise ValueError(f"pool needs >= 1 deployment, got {count}")
        return [self.deploy(arch, **kwargs) for __ in range(count)]

    # -- workload ------------------------------------------------------------------

    def make_state(self, rng):
        return self.STATE_CLASS.from_database(self.database, rng)

    @classmethod
    def mix(cls, name: str) -> Dict[str, float]:
        try:
            return cls.MIXES[name]
        except KeyError:
            label = cls.MIX_LABEL or cls.name
            raise KeyError(f"unknown {label} mix {name!r}; "
                           f"have {sorted(cls.MIXES)}") from None

    @classmethod
    def make_request(cls, name: str, rng, state):
        return cls.MAKE_REQUEST(name, rng, state)

    @staticmethod
    def choose_interaction(mix: Dict[str, float], rng) -> str:
        return _choose_interaction(mix, rng)

    def static_store(self) -> StaticContentStore:
        """The app's static files (subclasses register their catalogue)."""
        return StaticContentStore()

    @classmethod
    def interaction_names(cls) -> tuple:
        return tuple(cls.INTERACTIONS)

    @classmethod
    def is_read_only(cls, name: str) -> bool:
        return cls.INTERACTIONS[name][1]
