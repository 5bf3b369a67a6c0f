"""The benchmark applications, and the one way to construct them.

:func:`build_app` is the single construction entry point the rest of
the repo uses: harness caches, the parallel runner's worker warm-up,
and the figure registry all go through it, so an application + database
is built exactly once per process per app name.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.apps.base import ARCHITECTURES, BenchmarkApp

__all__ = ["ARCHITECTURES", "APP_NAMES", "BenchmarkApp", "build_app",
           "clear_app_cache", "mix_names"]

APP_NAMES = ("bookstore", "auction", "bboard")

# Default-built apps (populated database at default scale) are cached
# per process: populating a database is seconds of work and profiling
# warms it, so everyone must share one instance per app name.
_APP_CACHE = {}


def _resolve(app_name: str) -> Tuple[type, object]:
    """(app class, database builder) for a registry name."""
    if app_name == "bookstore":
        from repro.apps.bookstore import BookstoreApp, build_bookstore_database
        return BookstoreApp, build_bookstore_database
    if app_name == "auction":
        from repro.apps.auction import AuctionApp, build_auction_database
        return AuctionApp, build_auction_database
    if app_name == "bboard":
        from repro.apps.bboard import BulletinBoardApp, build_bboard_database
        return BulletinBoardApp, build_bboard_database
    raise KeyError(f"unknown application {app_name!r}; "
                   f"have {list(APP_NAMES)}")


def mix_names(app_name: str) -> Tuple[str, ...]:
    """The application's mix names, read off its class -- no database
    is built (the CLI validates ``--mix`` with this before any work)."""
    return tuple(sorted(_resolve(app_name)[0].MIXES))


def build_app(app_name: str, arch: Optional[str] = None, *,
              cluster=None, database=None, **db_kwargs):
    """Build (or fetch the cached) application, optionally deployed.

    ``build_app("bookstore")`` returns the process-wide BookstoreApp
    over a database populated at default scale.  With ``arch`` (one of
    ``ARCHITECTURES``: php, servlet, servlet_sync, ejb) it returns the
    pair ``(app, deployment)`` where ``deployment`` is whatever the
    architecture's ``deploy_*`` method yields -- the middleware front
    end, or ``(presentation, container)`` for ejb.

    ``cluster`` deploys a pool instead: pass a
    :class:`repro.topology.spec.TopologySpec` (the ``gen`` count is used) or a
    plain int, and the second element of the pair becomes the *list* of
    independent deployments over the shared database
    (:meth:`~repro.apps.base.BenchmarkApp.deploy_pool`).

    ``database`` or database-builder keywords (``scale``, ``tiny``,
    ``rng``) bypass the cache and build a private instance.
    """
    cls, builder = _resolve(app_name)
    if database is None and not db_kwargs:
        app = _APP_CACHE.get(app_name)
        if app is None:
            app = cls(builder())
            _APP_CACHE[app_name] = app
    else:
        app = cls(database if database is not None else builder(**db_kwargs))
    if arch is None:
        if cluster is not None:
            raise ValueError("cluster deployment needs an architecture")
        return app
    if cluster is not None:
        count = getattr(cluster, "gen", cluster)
        return app, app.deploy_pool(arch, int(count))
    return app, app.deploy(arch)


def clear_app_cache() -> None:
    """Forget cached default-built applications (tests use this)."""
    _APP_CACHE.clear()
