"""The cache tier as an interposer on a clustered site.

:class:`SiteCache` is the :class:`~repro.cache.tier.SimCacheTier` of one
site plus the decisions about *where* it sits on the request path and
*what* it keys on; :func:`attach_cache` puts it there (DESIGN.md "How a
site is composed"):

* a **query-result cache** on the site's *db_query* seam: a cacheable
  read (no explicit locks held, no writes, reads at least one table)
  first asks the tier; a hit skips the entire database round trip,
  whichever database tier (one primary, replicas, shards) sits below;
* a **page-fragment cache** for read-only interactions; a hit skips
  page generation *and* every query it would replay.  Where the lookup
  happens depends on the application (:data:`WEB_FRAGMENT_APPS`): at
  the web tier, on the *generate* seam, or inside the generator's own
  process, through the site's ``_fragments`` hook in the one
  ``php.script`` / ``servlet.engine`` body.

Keys are entity-scoped: each session draws an entity per table from the
profile's key space with a hot-set skew (see
:data:`repro.cache.tier.HOT_PROBABILITY`), memoized per request so the
page and its queries agree.  Every entry carries dependency tags and the
site reports each commit (:meth:`SiteCache.committed`), which
invalidates them synchronously, so cached runs stay consistent under
arbitrary read/write interleavings.

A site without cache nodes never imports this module: its seams stay
bound to the mechanisms and its ``cache`` is None.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.tier import (
    HOT_FRACTION,
    HOT_KEYS_MAX,
    HOT_PROBABILITY,
    CacheCosts,
    SimCacheTier,
)

#: Per-application fragment-cache placement defaults.  The bookstore
#: keeps the page lookup in the servlet container (its pages interleave
#: with cart/session state that lives there); the auction and bulletin-
#: board read pages are session-free, so their fragments are served
#: straight from Apache (mod_cache-style, in front of the AJP
#: connector) -- a hit skips the AJP crossing and the container
#: entirely, which is what lets those sites run into the paper's
#: ~94 Mb/s NIC ceiling instead of the web CPU (see ext_cache).
WEB_FRAGMENT_APPS = frozenset({"auction", "bboard"})


class SiteCache(SimCacheTier):
    """The cache nodes of one deployed topology, as its site sees them."""

    def __init__(self, site, costs: Optional[CacheCosts] = None):
        config = site.config
        spec = config.cluster
        if spec.cache_nodes <= 0:
            raise ValueError(f"{config.name!r} has no cache nodes")
        super().__init__(
            site.sim, site,
            [site.machines[n] for n in config.cache_node_names()], spec,
            costs=costs)
        self._key_spaces = site.profile.key_spaces
        # Page fragments are cached for read-only interactions only:
        # anything that writes must see its own update on the next page.
        self._page_cacheable = frozenset(
            name for name, prof in site.profile.interactions.items()
            if prof.read_only)
        # client -> {table: entity}: a session keeps revisiting the same
        # entities (its own customer row, its cart, the items it
        # browses), which is exactly the locality a cache tier serves.
        self._session_entities = {}

    # -- what the site tells its cache ------------------------------------------

    def forget_session(self, client_id) -> None:
        """A session of ``client_id`` started or ended."""
        self._session_entities.pop(client_id, None)

    def committed(self, route, writes) -> None:
        """A write statement of ``route``'s request committed (and was
        log-shipped): invalidate what depended on the written tables."""
        if self.granularity == "key":
            # Pin the write to an entity per table (this session's own
            # rows) so key-granular invalidation can spare bystanders.
            for table in writes:
                self.entity(route, table)
        self.invalidate(writes, route.cache_keys)

    # -- keys --------------------------------------------------------------------

    def entity(self, route, table: str):
        """The entity this request's cache keys pin for ``table``.

        Drawn once per *session* (hot-set skewed over the table's key
        space) and memoized, so a client's repeated pages and queries
        agree -- the per-session revisit locality a cache tier lives on.
        The sharded site routes by the same draw.
        """
        keys = route.cache_keys
        if keys is None:
            keys = route.cache_keys = {}
        entity = keys.get(table)
        if entity is not None:
            return entity
        session = self._session_entities.setdefault(route.client_id, {})
        entity = session.get(table)
        if entity is None:
            rng = route.rng
            space = max(1, self._key_spaces.get(table, 1_000_000))
            hot = max(1, min(int(space * HOT_FRACTION), HOT_KEYS_MAX))
            if rng.random() < HOT_PROBABILITY:
                entity = rng.randrange(hot)
            else:
                entity = rng.randrange(space)
            session[table] = entity
        keys[table] = entity
        return entity

    def dep_tags(self, route, tables):
        """Dependency tags for an entry: each read table pinned to the
        entity this request drew for it (key granularity spares entries
        pinned to other entities on a write; table granularity tags the
        whole table, so any write to it kills the entry)."""
        if self.granularity == "key":
            # Draw an entity for *every* read table: an un-pinned table
            # would tag (table, None) and die on any write to it, which
            # lets one hot-table writer nuke the whole cache.
            return tuple((t, self.entity(route, t))
                         for t in sorted(set(tables)))
        return tuple((t, None) for t in sorted(set(tables)))

    # -- the query-result cache (db_query seam) -----------------------------------

    def db_query(self, step, held_explicit, route, rc=None, label=""):
        reads = step[4]
        if held_explicit or step[5] or not reads:
            yield from self.next_db_query(step, held_explicit, route, rc,
                                          label)
            return
        entity = self.entity(route, reads[0])
        # Logical statement identity: the i-th cacheable read of this
        # interaction over these tables, for this entity.  (The step
        # tuple itself carries per-variant priced costs and would never
        # repeat across requests.)
        route.cache_seq += 1
        key = ("q", route.interaction, route.cache_seq, reads, entity)
        entry = yield from self.get(route.db_client, "query", key, rc)
        if entry is not None:
            stats = self.stats
            stats.absorbed_db_cpu += step[1]
            stats.absorbed_queries += step[6]
            return
        yield from self.next_db_query(step, held_explicit, route, rc, label)
        yield from self.put(route.db_client, "query", key, step[3],
                            self.dep_tags(route, reads), rc)

    # -- the page-fragment cache ----------------------------------------------------

    def page_plan(self, variant, route):
        """(key, dep tables) when this request's page is cacheable,
        else None."""
        if route.interaction not in self._page_cacheable:
            return None
        tables = set()
        primary = None
        for step in variant.steps:
            if step[0] == "query":
                reads = step[4]
                if primary is None and reads:
                    primary = reads[0]
                tables.update(reads)
        if primary is None:
            return None             # no reads: nothing worth caching
        return ("p", route.interaction, self.entity(route, primary)), tables

    def absorbed_page(self, variant) -> None:
        """A fragment hit served ``variant``'s page: its generation and
        every query it would have replayed never happened."""
        stats = self.stats
        stats.absorbed_db_cpu += variant.db_cpu_seconds
        stats.absorbed_queries += variant.query_count

    def generate(self, variant, rng, route, rc=None):
        """Apache-level fragment cache for the session-free apps
        (*generate* seam): the lookup happens at the *web* tier, before
        the AJP connector.  A hit serves the page from the front end --
        no AJP crossing, no container work, no queries -- leaving the
        web box's HTTP send as the only per-byte cost, which is how the
        auction browsing mix reaches the NIC ceiling instead of the web
        CPU."""
        plan = self.page_plan(variant, route)
        if plan is None:
            yield from self.next_generate(variant, rng, route, rc)
            return
        key, tables = plan
        web = route.web
        span = rc.push("web.fragment", "phase", "web") \
            if rc is not None else None
        try:
            entry = yield from self.get(web, "page", key, rc)
            if entry is not None:
                self.absorbed_page(variant)
                return
        finally:
            if span is not None:
                rc.pop(span)
        yield from self.next_generate(variant, rng, route, rc)
        yield from self.put(web, "page", key, variant.response_bytes,
                            self.dep_tags(route, tables), rc)


def attach_cache(site, costs: Optional[CacheCosts] = None) -> SiteCache:
    """Put the cache tier of ``site``'s topology on its request path
    (``site`` is a :class:`~repro.cluster.site.ClusteredSite` whose
    configuration has cache nodes); returns it (also ``site.cache``).

    A cache whose TTL is zero is not interposed at all.  PHP always
    looks its fragments up in-process (the script runs in the web server
    anyway); the servlet flavors do unless the application's pages are
    session-free."""
    cache = SiteCache(site, costs)
    site.cache = cache
    if cache.query_ttl > 0:
        site.interpose(cache, "db_query")
    if cache.page_ttl > 0:
        if site.config.flavor != "php" \
                and site.profile.app_name in WEB_FRAGMENT_APPS:
            site.interpose(cache, "generate")
        else:
            site._fragments = cache
    return cache
