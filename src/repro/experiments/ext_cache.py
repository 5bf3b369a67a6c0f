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

from repro.experiments.sweep import (
    SweepRow,
    run_rows,
    scale_level,
    traced,
)
from repro.harness.experiment import point_spec
from repro.metrics.report import table
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


def _cached(row: SweepRow) -> bool:
    """Rows are keyed ``(nodes, MB per node)``; the baseline has no nodes."""
    return row.key[0] > 0


def _stat(row: SweepRow, name: str):
    """A field of the row's ``point.cache`` record (the uncached
    baseline has none: 0)."""
    return getattr(getattr(row.peak, "cache", None), name, 0)


@dataclass
class CacheReport:
    """One table per mix: cache grid vs throughput and hit rates."""

    title: str
    app_name: str
    scale: str
    mixes: Dict[str, List[SweepRow]] = field(default_factory=dict)

    def baseline(self, mix_name: str) -> SweepRow:
        return next(row for row in self.mixes[mix_name] if not _cached(row))

    def best(self, mix_name: str) -> SweepRow:
        return max(self.mixes[mix_name],
                   key=lambda row: row.peak.throughput_ipm)

    def render(self) -> str:
        lines = [self.title]
        for mix_name, rows in self.mixes.items():
            base = self.baseline(mix_name)
            base_ipm = base.peak.throughput_ipm or 1.0

            def gain(row):
                return row.peak.throughput_ipm / base_ipm

            header, body = table((
                ("nodes", ">5", lambda r: r.key[0]),
                ("MB/node", " >8",
                 lambda r: f"{r.key[1]:g}" if _cached(r) else "-"),
                ("ipm", " >7.0f", lambda r: r.peak.throughput_ipm),
                ("gain", " >6", lambda r: f"{gain(r):.2f}x"),
                ("page-hit", " >8",
                 lambda r: f"{100 * _stat(r, 'page_hit_rate'):.0f}%"),
                ("query-hit", " >9",
                 lambda r: f"{100 * _stat(r, 'query_hit_rate'):.0f}%"),
                ("absorbed", " >9",
                 lambda r: f"{_stat(r, 'absorbed_db_cpu'):.0f}s"),
                ("db cpu", " >6.2f", lambda r: r.peak.cpu.database),
                ("evict", " >6", lambda r: _stat(r, "evictions")),
            ), rows)
            lines += ["", f"{self.app_name}/{mix_name} @{base.spec.clients} "
                          f"clients (scale={self.scale})", header, *body]
            best = self.best(mix_name)
            if _cached(best):
                lines.append(
                    f"  -> best: {best.configuration} at "
                    f"{best.key[1]:g} MB/node -- x{gain(best):.2f} "
                    f"throughput, cache hit rate "
                    f"{100 * _stat(best, 'hit_rate'):.0f}%")
            else:
                lines.append("  -> the cache never beat the baseline "
                             "on this mix")
            for row in rows:
                if row.bottleneck:
                    tag = (f"{row.key[0]}x{row.key[1]:g}MB"
                           if _cached(row) else "no cache")
                    lines.append(f"  bottleneck [{tag}]: {row.bottleneck}")
        return "\n".join(lines)


def run_cache(scale: str = "tiny", app_name: str = "bookstore",
              mixes: Optional[Tuple[str, ...]] = None,
              configs: Optional[str] = None, seed: int = 42,
              jobs: Optional[int] = None, trace: bool = False,
              mode: str = "sharded", granularity: str = "key") \
        -> CacheReport:
    """The full experiment: every mix through the capacity x node grid.

    ``configs`` is the configuration to put the tier in front of for
    every mix (default: per mix from :data:`DEFAULT_BASES`, falling
    back to ``Ws-Servlet-DB``).  ``trace`` additionally re-runs each
    mix's baseline and best cached point with request-level tracing and
    records both verdicts -- the bottleneck-migration statement.
    """
    level = scale_level(SCALES, scale)
    grid = [(0, 0.0)] + [(n, mb) for mb in level.sizes_mb if mb > 0
                         for n in level.node_counts]
    report = CacheReport(
        title=f"Cache tier: throughput and hit rate vs capacity x nodes "
              f"({app_name}, scale={scale}, mode={mode}, "
              f"granularity={granularity})",
        app_name=app_name, scale=scale)
    for mix_name in mixes or DEFAULT_MIXES[app_name]:
        base = configs or DEFAULT_BASES.get(mix_name, "Ws-Servlet-DB")
        clients = level.clients_for(mix_name, app_name)
        report.mixes[mix_name] = [
            SweepRow((nodes, size_mb),
                     point_spec(app_name, mix_name,
                                config_for(base, nodes, size_mb, mode,
                                           granularity),
                                clients, level, seed),
                     (clients,))
            for nodes, size_mb in grid]
    run_rows(sum(report.mixes.values(), []), jobs)
    if trace:
        for mix_name in report.mixes:
            for row in (report.baseline(mix_name), report.best(mix_name)):
                row.bottleneck = traced(row.spec, row.spec.clients).bottleneck
    return report
