"""Extension experiment: a cache tier as a topology axis.

The paper's middleware comparison never caches: every page is generated
and every query hits the database, which is why the database CPU is the
headline bottleneck.  This experiment puts a memcached-style cache tier
(:mod:`repro.cache`) in front of the database --
``Ws-Servlet-Cache{n}-DB`` and friends -- and sweeps **cache capacity x
node count** at a fixed near-saturation client population, once per
mix:

* the bookstore **browsing** mix is read-dominated: page-fragment hits
  absorb whole interactions' worth of generation and queries, the
  database CPU falls off a cliff, and the traced verdict migrates from
  ``db cpu ~100%`` to ``cache-absorbed`` -- the bottleneck the paper
  measured is simply gone;
* the bookstore **shopping** mix writes often enough that write-driven
  invalidation caps the hit rate; the cache still absorbs database
  work, but the verdict stays with the database, showing that a cache
  tier is a *read* accelerator, not a write one.

Capacity matters at the low end (an undersized node evicts its working
set; hit rate and throughput track capacity) and stops mattering once
the hot set fits -- the curve flattens, which is the sizing guidance a
capacity sweep exists to give.

``--trace`` re-runs the baseline and the best cached point of each mix
with request-level tracing (:mod:`repro.obs`) and prints both verdicts
side by side: the bottleneck-migration statement, derived from spans
rather than asserted.

Run:  python -m repro cache [--scale tiny|quick|full] [--trace]
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import group_by_key
from repro.harness.experiment import point_spec, run_experiment
from repro.harness.parallel import run_points
from repro.topology.spec import TopologySpec, parse_topology, topology

#: Default base configuration per bookstore mix: browsing is the
#: read-dominated showcase, shopping the write-limited contrast (on the
#: sync flavor, whose explicit locking the cache must coexist with).
DEFAULT_BASES = {"browsing": "Ws-Servlet-DB",
                 "shopping": "Ws-Servlet-DB(sync)"}
DEFAULT_MIXES = {"bookstore": ("browsing", "shopping"),
                 "auction": ("browsing",), "bboard": ("reading",)}


@dataclass(frozen=True)
class CacheScale:
    """Grid and phase durations for one scale level.

    ``sizes_mb`` is the per-node LRU capacity sweep; size 0 means *no
    cache tier at all* (the paper baseline, run through the identical
    harness).  ``clients`` fixes each mix at a population just past the
    uncached saturation point, so absorbed work shows up as throughput;
    keys are mix names, or ``app/mix`` for an app-specific population
    (the cached auction runs far past the bookstore's numbers -- the
    web-served fragments have to be driven into the NIC ceiling).
    """

    sizes_mb: Tuple[float, ...]
    node_counts: Tuple[int, ...]
    clients: Dict[str, int]
    default_clients: int
    ramp_up: float
    measure: float
    ramp_down: float

    def clients_for(self, mix_name: str,
                    app_name: str = "bookstore") -> int:
        qualified = self.clients.get(f"{app_name}/{mix_name}")
        if qualified is not None:
            return qualified
        return self.clients.get(mix_name, self.default_clients)


SCALES = {
    "tiny": CacheScale(sizes_mb=(0, 64), node_counts=(2,),
                       clients={"browsing": 60, "shopping": 60},
                       default_clients=60,
                       ramp_up=60.0, measure=120.0, ramp_down=10.0),
    "quick": CacheScale(sizes_mb=(0, 0.25, 1, 64), node_counts=(1, 2, 4),
                        clients={"browsing": 100, "shopping": 200,
                                 "auction/browsing": 2400,
                                 "bboard/reading": 2600},
                        default_clients=100,
                        ramp_up=120.0, measure=300.0, ramp_down=10.0),
    "full": CacheScale(sizes_mb=(0, 0.25, 0.5, 1, 4, 64),
                       node_counts=(1, 2, 4, 8),
                       clients={"browsing": 100, "shopping": 200,
                                "auction/browsing": 2400,
                                "bboard/reading": 2600},
                       default_clients=100,
                       ramp_up=300.0, measure=900.0, ramp_down=30.0),
}


def config_for(base_name: str, nodes: int, size_mb: float,
               mode: str = "sharded", granularity: str = "key"):
    """The deployment for ``nodes`` cache nodes of ``size_mb`` MB over
    ``base_name``; size 0 (or zero nodes) leaves the base exactly as
    named -- no cache machinery anywhere near the run.

    The base may be *any* topology name (``Ws{2}-Servlet{2}-DB(1+1)``
    included): the cache axis composes with front pools and read
    replicas, which is the point of one unified spec.
    """
    base = parse_topology(base_name)
    topo = getattr(base, "cluster", None)
    spec = topo if topo is not None else TopologySpec()
    root = base.base_configuration if topo is not None else base
    if nodes <= 0 or size_mb <= 0:
        spec = replace(spec, cache_nodes=0)
    else:
        spec = replace(spec, cache_nodes=nodes, cache_mode=mode,
                       cache_mb=size_mb, cache_granularity=granularity)
    return topology(root, spec)


@dataclass
class CacheRow:
    """One (mix, nodes, size) observation, scalars only (picklable)."""

    configuration: str
    nodes: int
    size_mb: float
    clients: int
    throughput_ipm: float
    db_busy: float
    query_hit_rate: float = 0.0
    page_hit_rate: float = 0.0
    hit_rate: float = 0.0
    absorbed_db_cpu: float = 0.0
    evictions: int = 0
    invalidated: int = 0
    bottleneck: Optional[str] = None    # trace verdict (None if untraced)

    @property
    def cached(self) -> bool:
        return self.nodes > 0 and self.size_mb > 0


def _cache_row(spec, nodes: int, size_mb: float, point) -> CacheRow:
    """Fold one point (and its ``point.cache`` snapshot) into a row."""
    row = CacheRow(
        configuration=spec.config.name, nodes=nodes, size_mb=size_mb,
        clients=spec.clients, throughput_ipm=point.throughput_ipm,
        db_busy=point.cpu.database)
    stats = getattr(point, "cache", None)
    if stats is not None:
        row.query_hit_rate = stats.query_hit_rate
        row.page_hit_rate = stats.page_hit_rate
        row.hit_rate = stats.hit_rate
        row.absorbed_db_cpu = stats.absorbed_db_cpu
        row.evictions = stats.evictions
        row.invalidated = stats.invalidated_entries
    return row


@dataclass
class CacheReport:
    """One table per mix: cache grid vs throughput and hit rates."""

    title: str
    app_name: str
    scale: str
    mixes: Dict[str, List[CacheRow]] = field(default_factory=dict)

    def baseline(self, mix_name: str) -> CacheRow:
        for row in self.mixes[mix_name]:
            if not row.cached:
                return row
        raise KeyError(f"no uncached baseline row for {mix_name!r}")

    def best(self, mix_name: str) -> CacheRow:
        return max(self.mixes[mix_name], key=lambda r: r.throughput_ipm)

    def render(self) -> str:
        lines = [self.title]
        for mix_name, rows in self.mixes.items():
            base = self.baseline(mix_name)
            base_ipm = base.throughput_ipm or 1.0
            lines.append("")
            lines.append(f"{self.app_name}/{mix_name} @{base.clients} "
                         f"clients (scale={self.scale})")
            lines.append(f"{'nodes':>5} {'MB/node':>8} {'ipm':>7} "
                         f"{'gain':>6} {'page-hit':>8} {'query-hit':>9} "
                         f"{'absorbed':>9} {'db cpu':>6} {'evict':>6}")
            for row in rows:
                label_nodes = row.nodes if row.cached else 0
                label_mb = f"{row.size_mb:g}" if row.cached else "-"
                lines.append(
                    f"{label_nodes:>5} {label_mb:>8} "
                    f"{row.throughput_ipm:>7.0f} "
                    f"{row.throughput_ipm / base_ipm:>5.2f}x "
                    f"{100 * row.page_hit_rate:>7.0f}% "
                    f"{100 * row.query_hit_rate:>8.0f}% "
                    f"{row.absorbed_db_cpu:>8.0f}s "
                    f"{row.db_busy:>6.2f} {row.evictions:>6}")
            best = self.best(mix_name)
            if best.cached:
                lines.append(
                    f"  -> best: {best.configuration} at "
                    f"{best.size_mb:g} MB/node -- "
                    f"x{best.throughput_ipm / base_ipm:.2f} throughput, "
                    f"cache hit rate {100 * best.hit_rate:.0f}%")
            else:
                lines.append("  -> the cache never beat the baseline "
                             "on this mix")
            for row in rows:
                if row.bottleneck:
                    tag = (f"{row.nodes}x{row.size_mb:g}MB"
                           if row.cached else "no cache")
                    lines.append(f"  bottleneck [{tag}]: "
                                 f"{row.bottleneck}")
        return "\n".join(lines)


def run_cache(app_name: str = "bookstore",
              mix_names: Tuple[str, ...] = DEFAULT_MIXES["bookstore"],
              base_name: Optional[str] = None,
              scale: str = "tiny",
              mode: str = "sharded",
              granularity: str = "key",
              seed: int = 42,
              jobs: Optional[int] = None,
              trace: bool = False) -> CacheReport:
    """The full experiment: every mix through the capacity x node grid.

    ``base_name`` is the configuration to put the tier in front of for
    every mix (default: per mix from :data:`DEFAULT_BASES`, falling
    back to ``Ws-Servlet-DB``).  The independent points run through
    ``run_points``; ``trace`` additionally re-runs each mix's baseline
    and best cached point with request-level tracing and records both
    verdicts -- the bottleneck-migration statement.
    """
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; have {sorted(SCALES)}")
    timeline = SCALES[scale]
    grid = [(0, 0.0)] + [(n, mb) for mb in timeline.sizes_mb if mb > 0
                         for n in timeline.node_counts]

    specs = []
    cells = []      # (mix_name, nodes, size_mb) per spec, same order
    for mix_name in mix_names:
        base = base_name or DEFAULT_BASES.get(mix_name, "Ws-Servlet-DB")
        clients = timeline.clients_for(mix_name, app_name)
        for nodes, size_mb in grid:
            specs.append(point_spec(
                app_name, mix_name,
                config_for(base, nodes, size_mb, mode, granularity),
                clients, timeline, seed))
            cells.append((mix_name, nodes, size_mb))
    rows = [_cache_row(spec, nodes, size_mb, point)
            for spec, (__, nodes, size_mb), point
            in zip(specs, cells, run_points(specs, jobs))]
    report = CacheReport(
        title=f"Cache tier: throughput and hit rate vs capacity x nodes "
              f"({app_name}, scale={scale}, mode={mode}, "
              f"granularity={granularity})",
        app_name=app_name, scale=scale,
        mixes=group_by_key([mix_name for mix_name, __, __ in cells], rows))

    if trace:
        for mix_name in mix_names:
            for row in (report.baseline(mix_name), report.best(mix_name)):
                spec = next(s for r, s in zip(rows, specs) if r is row)
                row.bottleneck = run_experiment(
                    replace(spec, trace=True)).bottleneck
    return report


def render(scale: str = "tiny", **kwargs) -> str:
    return run_cache(scale=scale, **kwargs).render()
