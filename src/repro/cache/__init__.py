"""The cache tier: memcached-style query-result and page-fragment
caches as a topology axis.

Selected per configuration through the unified topology grammar
(``Ws-Servlet-Cache{2}-DB``; see :mod:`repro.topology.spec`), the tier
places N cache nodes between the generators and the database in
``sharded`` or ``round_robin`` mode.  :class:`SiteCache` interposes it
on a simulated site; :class:`CachingConnection` / :class:`CachedDeployment`
apply the identical invalidation discipline to the functional stack so
correctness is testable against real results.  The ``python -m repro
cache`` CLI sweeps cache size x node count
(:mod:`repro.experiments.ext_cache`).

Strictly opt-in: a configuration without cache nodes never imports this
package, draws no RNG, and schedules no events.
"""

from repro.cache.functional import CachedDeployment, CachingConnection
from repro.cache.lru import ENTRY_OVERHEAD_BYTES, LruStore
from repro.cache.site import SiteCache, attach_cache
from repro.cache.tier import (
    CacheCosts,
    CacheTierStats,
    SimCacheTier,
    shard_index,
)

__all__ = [
    "CacheCosts",
    "CacheTierStats",
    "CachedDeployment",
    "CachingConnection",
    "ENTRY_OVERHEAD_BYTES",
    "LruStore",
    "SimCacheTier",
    "SiteCache",
    "attach_cache",
    "shard_index",
]
