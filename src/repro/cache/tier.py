"""The simulated memcached-style cache tier.

:class:`SimCacheTier` owns one :class:`~repro.cache.lru.LruStore` per
cache node and prices every get/set on the simulated hardware: client
CPU for the memcached call, a LAN round trip, and node CPU for the
lookup plus per-byte value handling.  Placement follows the spec's
``cache_mode``:

* ``sharded`` -- each key hashes (crc32, deterministic under hash
  randomization) to exactly one node; a down node means misses for its
  shard, never errors;
* ``round_robin`` -- stores replicate to every live node and gets
  rotate across them, trading write amplification for read spread (the
  replicated mode of the memcached middleware exemplar).

Invalidation is free of simulated cost: it rides on the commit
bookkeeping (``_note_commit``), which is not a simulator process, and
models the tier's async invalidation stream.  All tier state is pure
Python bookkeeping -- the only simulated events are the CPU/LAN work of
explicit get/set calls, so a configuration without cache nodes never
touches this module.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Optional

from repro.cache.lru import LruStore

#: Entity draws for cache keys follow a hot-set skew: HOT_PROBABILITY of
#: sessions land on the hottest HOT_FRACTION of each table's key space
#: (capped at HOT_KEYS_MAX entities -- popularity is absolute, it does
#: not grow with table size).
HOT_FRACTION = 0.10
HOT_PROBABILITY = 0.9
HOT_KEYS_MAX = 100


@dataclass(frozen=True)
class CacheCosts:
    """CPU/byte prices of one cache operation (memcached-scale)."""

    per_client_op_cpu: float = 0.02e-3  # issuer-side client library call
    per_op_cpu: float = 0.06e-3         # node-side get/set service time
    per_byte_cpu: float = 6e-9          # node-side value handling
    request_bytes: int = 64             # GET/SET header on the wire
    store_overhead_bytes: int = 40      # SET framing beyond the value
    reply_overhead_bytes: int = 32      # hit-reply framing
    miss_reply_bytes: int = 24          # a miss reply


@dataclass
class CacheTierStats:
    """Aggregates across all nodes of the tier (picklable snapshot)."""

    query_hits: int = 0
    query_misses: int = 0
    page_hits: int = 0
    page_misses: int = 0
    stores: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidated_entries: int = 0
    node_flushes: int = 0
    absorbed_db_cpu: float = 0.0        # DB CPU-seconds served from cache
    absorbed_queries: int = 0           # statements never sent to the DB

    @property
    def query_lookups(self) -> int:
        return self.query_hits + self.query_misses

    @property
    def page_lookups(self) -> int:
        return self.page_hits + self.page_misses

    @property
    def query_hit_rate(self) -> float:
        total = self.query_lookups
        return self.query_hits / total if total else 0.0

    @property
    def page_hit_rate(self) -> float:
        total = self.page_lookups
        return self.page_hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.query_lookups + self.page_lookups
        return (self.query_hits + self.page_hits) / total if total else 0.0

    def snapshot(self) -> "CacheTierStats":
        return replace(self)

    def delta(self, since: "CacheTierStats") -> "CacheTierStats":
        """Counters accumulated after the ``since`` snapshot (used to
        report the measurement window only, like throughput)."""
        return CacheTierStats(**{
            name: getattr(self, name) - getattr(since, name)
            for name in self.__dataclass_fields__})


def shard_index(key, n: int) -> int:
    """Deterministic key -> shard mapping (builtin ``hash`` is
    randomized per process; crc32 is stable everywhere)."""
    return zlib.crc32(repr(key).encode("utf-8")) % n


class SimCacheTier:
    """N cache nodes in front of the database, under simulation."""

    def __init__(self, sim, site, nodes, spec,
                 costs: Optional[CacheCosts] = None):
        self.sim = sim
        self.site = site
        self.nodes = list(nodes)            # Machine objects
        self.mode = spec.cache_mode
        self.granularity = spec.cache_granularity
        self.query_ttl = spec.cache_query_ttl
        self.page_ttl = spec.cache_page_ttl
        self.costs = costs if costs is not None else CacheCosts()
        self.stats = CacheTierStats()
        capacity = int(spec.cache_mb * 1_000_000)
        self.stores = {m.name: LruStore(capacity, self.stats)
                       for m in self.nodes}
        self._rr_cursor = 0

    # -- placement ------------------------------------------------------------

    def _live(self, machine) -> bool:
        return machine.name not in self.site.down

    def _get_node(self, key):
        """The node a get for ``key`` visits, or None (all down /
        shard owner down -> a miss without a network trip)."""
        if self.mode == "sharded":
            node = self.nodes[shard_index(key, len(self.nodes))]
            return node if self._live(node) else None
        # round_robin: rotate the cursor over live nodes, one try.
        for __ in range(len(self.nodes)):
            node = self.nodes[self._rr_cursor % len(self.nodes)]
            self._rr_cursor = (self._rr_cursor + 1) % len(self.nodes)
            if self._live(node):
                return node
        return None

    def _put_nodes(self, key):
        if self.mode == "sharded":
            node = self.nodes[shard_index(key, len(self.nodes))]
            return [node] if self._live(node) else []
        return [node for node in self.nodes if self._live(node)]

    # -- simulated operations -------------------------------------------------

    def _count(self, kind: str, hit: bool) -> None:
        stats = self.stats
        if kind == "query":
            if hit:
                stats.query_hits += 1
            else:
                stats.query_misses += 1
        elif hit:
            stats.page_hits += 1
        else:
            stats.page_misses += 1

    def get(self, issuer, kind: str, key, rc=None):
        """Simulator process: one cache lookup.  Returns the entry on a
        hit, None on a miss (including down-node shards)."""
        node = self._get_node(key)
        if node is None:
            self._count(kind, hit=False)
            return None
        costs = self.costs
        store = self.stores[node.name]
        span = rc.push("cache.get", "cache", node.name,
                       meta={"kind": kind}) if rc is not None else None
        try:
            yield from issuer.cpu.execute(costs.per_client_op_cpu)
            yield from self.site.lan.transfer(issuer, node,
                                              costs.request_bytes)
            entry = store.get(key, self.sim.now)
            if entry is None:
                yield from node.cpu.execute(costs.per_op_cpu)
                yield from self.site.lan.transfer(node, issuer,
                                                  costs.miss_reply_bytes)
                self._count(kind, hit=False)
                return None
            yield from node.cpu.execute(
                costs.per_op_cpu + entry.value_bytes * costs.per_byte_cpu)
            yield from self.site.lan.transfer(
                node, issuer, entry.value_bytes + costs.reply_overhead_bytes)
            self._count(kind, hit=True)
            return entry
        finally:
            if span is not None:
                rc.pop(span)

    def put(self, issuer, kind: str, key, value_bytes: int, tags,
            rc=None):
        """Simulator process: store one entry (on every target node --
        round-robin mode replicates, amplifying store traffic)."""
        ttl = self.query_ttl if kind == "query" else self.page_ttl
        expires_at = self.sim.now + ttl
        costs = self.costs
        wire = costs.request_bytes + costs.store_overhead_bytes \
            + int(value_bytes)
        for node in self._put_nodes(key):
            span = rc.push("cache.set", "cache", node.name,
                           meta={"kind": kind}) if rc is not None else None
            try:
                yield from issuer.cpu.execute(costs.per_client_op_cpu)
                yield from self.site.lan.transfer(issuer, node, wire)
                yield from node.cpu.execute(
                    costs.per_op_cpu + value_bytes * costs.per_byte_cpu)
                self.stores[node.name].put(key, value_bytes, expires_at,
                                           tags)
            finally:
                if span is not None:
                    rc.pop(span)

    # -- invalidation and faults ----------------------------------------------

    def invalidate(self, tables, entities=None) -> int:
        """Commit hook: kill entries depending on the written tables.

        ``entities`` maps table -> the entity the writer touched (for
        key-granular invalidation); missing/None kills conservatively.
        Pure bookkeeping: runs inside the commit path, no events.
        """
        removed = 0
        for table in sorted(set(tables)):
            writer_entity = None
            if self.granularity == "key" and entities:
                writer_entity = entities.get(table)
            for store in self.stores.values():
                removed += store.invalidate(table, writer_entity)
        return removed

    def node_crashed(self, name: str) -> None:
        """A cache node died: its memory is gone.  Restart is implicit
        -- when the machine comes back it serves an empty (cold) store,
        so the tier degrades to misses, never errors."""
        self.stores[name].clear()
        self.stats.node_flushes += 1
