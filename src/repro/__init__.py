"""Reproduction of "Performance Comparison of Middleware Architectures
for Generating Dynamic Web Content" (Cecchet, Chanda, Elnikety,
Marguerite, Zwaenepoel -- Middleware 2003).

Public API overview
-------------------

Applications (functional layer)::

    from repro import build_app
    app, php = build_app("bookstore", "php")
    response, trace = php.handle(HttpRequest("/best_sellers"))

(the explicit spelling still works: ``BookstoreApp(
build_bookstore_database(scale=0.01)).deploy_php()``)

Performance experiments::

    from repro import ExperimentSpec, run_experiment, WS_PHP_DB
    from repro.harness.profiles import profile_application
    profile = profile_application(app, php, "php")
    point = run_experiment(ExperimentSpec(
        config=WS_PHP_DB, profile=profile,
        mix=app.mix("shopping"), clients=600))

Figures::

    from repro.experiments import run_figure
    report = run_figure("fig05")
    print(report.render_throughput_table())

Request-level tracing (where did the time go?)::

    from repro.harness.experiment import run_experiment
    from dataclasses import replace
    point = run_experiment(replace(spec, trace=True))
    print(point.bottleneck)               # e.g. "db cpu 98%"

See README.md for the guided tour and DESIGN.md for the full inventory.
"""

from repro.apps import ARCHITECTURES, BenchmarkApp, build_app
from repro.apps.auction import AuctionApp, build_auction_database
from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.db import Database
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.profiles import AppProfile, profile_application
from repro.middleware import EjbContainer, PhpModule, ServletEngine
from repro.metrics.report import ExperimentReport, ThroughputPoint
from repro.sim import Simulator
from repro.topology.configs import (
    ALL_CONFIGURATIONS,
    Configuration,
    WS_PHP_DB,
    WS_SEP_SERVLET_DB,
    WS_SEP_SERVLET_DB_SYNC,
    WS_SERVLET_DB,
    WS_SERVLET_DB_SYNC,
    WS_SERVLET_EJB_DB,
)
from repro.topology.simulation import SimulatedSite
from repro.web.http import HttpRequest, HttpResponse

__version__ = "1.0.0"

__all__ = [
    "AppProfile",
    "ARCHITECTURES",
    "AuctionApp",
    "BenchmarkApp",
    "BookstoreApp",
    "Configuration",
    "Database",
    "EjbContainer",
    "ExperimentReport",
    "ExperimentSpec",
    "HttpRequest",
    "HttpResponse",
    "PhpModule",
    "ServletEngine",
    "SimulatedSite",
    "Simulator",
    "ThroughputPoint",
    "ALL_CONFIGURATIONS",
    "WS_PHP_DB",
    "WS_SERVLET_DB",
    "WS_SERVLET_DB_SYNC",
    "WS_SEP_SERVLET_DB",
    "WS_SEP_SERVLET_DB_SYNC",
    "WS_SERVLET_EJB_DB",
    "build_app",
    "build_auction_database",
    "build_bookstore_database",
    "profile_application",
    "run_experiment",
    "__version__",
]
