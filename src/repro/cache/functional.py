"""Functional-layer cache twins: real results, same invalidation rules.

The simulated tier (:mod:`repro.cache.tier`) prices cache traffic in
virtual time; these wrappers apply the *same* caching discipline to the
functional stack that actually executes SQL and renders pages, so
invalidation correctness is testable against ground truth:

* :class:`CachingConnection` interposes the query-result cache in the
  DB driver -- the functional counterpart of ``SiteCache.db_query``;
* :class:`CachedDeployment` interposes the page-fragment cache at the
  servlet/PHP dispatch layer -- the counterpart of the fragment lookup
  in ``_run_container`` / ``_run_php``.

Both cache only clean reads (no explicit locks held, statement/
interaction is read-only), tag entries with the tables they read, and
kill dependents on every write -- so a cached stack returns
field-for-field identical results to an uncached one under arbitrary
read/write interleavings (asserted by hypothesis tests).
"""

from __future__ import annotations

import copy
from typing import Optional, Sequence

from repro.cache.lru import LruStore
from repro.cache.tier import CacheTierStats

_READ_KEYWORDS = ("SELECT", "EXPLAIN")


def _is_read_statement(sql: str) -> bool:
    head = sql.lstrip().split(None, 1)
    return bool(head) and head[0].upper() in _READ_KEYWORDS


class CachingConnection:
    """A DB connection with a query-result cache in front.

    Clean ``SELECT``/``EXPLAIN`` statements (no ``LOCK TABLES`` span
    open) are served from an :class:`~repro.cache.lru.LruStore` keyed by
    ``(sql, params)``; entries are tagged with ``stats.tables_read`` and
    invalidated by ``stats.tables_written`` of every write that passes
    through.  Results are deep-copied on store and on serve, so callers
    may mutate what they get back.
    """

    def __init__(self, inner, capacity_bytes: int = 64_000_000,
                 ttl: Optional[float] = None, clock=None):
        self._inner = inner
        self._ttl = ttl
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.stats = CacheTierStats()
        self.store = LruStore(capacity_bytes, self.stats)

    def execute(self, sql: str, params: Sequence = ()):
        key = (sql, tuple(params))
        cacheable = _is_read_statement(sql) and not self._locks_held()
        if cacheable:
            hit = self.store.get(key, self._clock())
            if hit is not None:
                self.stats.query_hits += 1
                return copy.deepcopy(hit.value)
        result = self._inner.execute(sql, params)
        if cacheable and result.kind in ("select", "explain"):
            self.stats.query_misses += 1
            expires = self._clock() + self._ttl \
                if self._ttl is not None else None
            tags = tuple((t, None) for t in sorted(set(
                result.stats.tables_read)))
            self.store.put(key, result.cost.result_bytes, expires, tags,
                           value=copy.deepcopy(result))
        elif result.stats.tables_written:
            for table in sorted(set(result.stats.tables_written)):
                self.store.invalidate(table)
        return result

    def _locks_held(self) -> bool:
        session = getattr(self._inner, "session", None)
        return bool(session.locks) if session is not None else False

    # -- passthrough (same surface as ReadWriteSplitConnection) -----------

    @property
    def last_insert_id(self):
        return self._inner.last_insert_id

    @property
    def overheads(self):
        return self._inner.overheads

    @property
    def session(self):
        return self._inner.session

    @property
    def database(self):
        return self._inner.database

    def close(self) -> None:
        self._inner.close()


class CachedDeployment:
    """A deployed engine with a page-fragment cache in front.

    Wraps anything with ``handle(request) -> (response, trace)`` (the
    PHP module or a servlet engine).  Pages of interactions the app
    declares read-only are cached keyed by ``(path, params,
    session_id)`` and tagged with every table their trace read; a
    non-cached handle's written tables invalidate dependents.
    """

    def __init__(self, inner, app, capacity_bytes: int = 64_000_000,
                 ttl: Optional[float] = None, clock=None):
        self._inner = inner
        self._app = app
        self._ttl = ttl
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.stats = CacheTierStats()
        self.store = LruStore(capacity_bytes, self.stats)

    def handle(self, request):
        # Deployed pages live at "/<interaction name>"; anything the
        # app doesn't know (static files, 404s) is uncacheable here.
        name = request.path.lstrip("/")
        cacheable = name in self._app.interaction_names() \
            and self._app.is_read_only(name)
        key = (request.path, tuple(sorted(request.params.items())),
               request.session_id)
        if cacheable:
            hit = self.store.get(key, self._clock())
            if hit is not None:
                self.stats.page_hits += 1
                return copy.deepcopy(hit.value)
        response, trace = self._inner.handle(request)
        written = set()
        read = set()
        for record in trace.queries():
            read.update(record.tables_read)
            written.update(record.tables_written)
        if cacheable and response.ok() and not written:
            self.stats.page_misses += 1
            expires = self._clock() + self._ttl \
                if self._ttl is not None else None
            tags = tuple((t, None) for t in sorted(read))
            self.store.put(key, response.body_bytes, expires, tags,
                           value=copy.deepcopy((response, trace)))
        elif written:
            for table in sorted(written):
                self.store.invalidate(table)
        return response, trace

    def __getattr__(self, name):
        return getattr(self._inner, name)
