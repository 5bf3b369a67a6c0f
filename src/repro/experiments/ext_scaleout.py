"""Extension experiment: horizontal scale-out with read replicas.

The paper scales each configuration *up* (one machine per tier); this
experiment scales *out* (:mod:`repro.cluster`): for a growing number of
database read replicas it sizes the front pools to match, sweeps a
client grid, and reports peak throughput per replica count -- once for
a CPU-bound mix and once for a lock-bound one.  The contrast is the
point:

* the bookstore **shopping** mix is read-heavy and CPU-bound on the
  database, so read replicas buy near-linear throughput (0.92-0.97x
  per added database box, measured) until every box -- the write
  primary included -- pins at 100% CPU;
* the bookstore **ordering** mix is dominated by write-lock convoys:
  replicas still help (they split the reader herd that the writers
  convoy behind), but each one replays the full write stream under its
  own table locks and lagging replicas bounce read-your-writes
  sessions back to the primary, so the marginal gain *decays* as
  replicas are added and the traced bottleneck stays ``db locks``.

``--trace`` re-runs the peak point of each replica count with
request-level tracing (:mod:`repro.obs`) and appends the
bottleneck-attribution verdict, showing where the residual bottleneck
went (db CPU -> primary writes / lock wait).

Run:  python -m repro scale [--scale tiny|quick|full] [--trace]

Heads-up: ``--scale quick`` simulates client populations up to
``(1 + max replicas) x`` the base grid and takes tens of minutes
serially on one CPU; ``--jobs 0`` fans the independent runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.sweep import (
    SweepRow,
    run_rows,
    scale_level,
    traced,
)
from repro.harness.experiment import point_spec
from repro.metrics.report import table
from repro.topology.spec import topology

#: Default base configuration per bookstore mix: the shopping mix is
#: database-CPU-bound on the dedicated-servlet configurations, the
#: ordering mix is write-lock-bound on the explicit-locking flavor.
DEFAULT_BASES = {"shopping": "Ws-Servlet-DB(sync)",
                 "ordering": "Ws-Servlet-DB"}
DEFAULT_MIXES = {"bookstore": ("shopping", "ordering"),
                 "auction": ("bidding",), "bboard": ("submission",)}


@dataclass(frozen=True)
class ScaleoutScale:
    """Grids and phase durations for one scale level.

    ``grids`` holds the zero-replica client grid per mix, bracketing
    that mix's saturation point (probed: the shopping mix saturates the
    database CPU below 240 clients, the ordering mix saturates on table
    locks near 800).  For ``r`` replicas a grid is multiplied by
    ``1 + r`` -- a scaled-out deployment must be driven past its larger
    saturation point -- and clamped to ``max_clients`` to bound the
    wall-clock cost of the biggest deployments.
    """

    replica_counts: Tuple[int, ...]
    grids: Dict[str, Tuple[int, ...]]
    default_grid: Tuple[int, ...]
    max_clients: int
    ramp_up: float
    measure: float
    ramp_down: float

    def clients_for(self, mix_name: str, replicas: int) -> Tuple[int, ...]:
        grid = self.grids.get(mix_name, self.default_grid)
        out: List[int] = []
        for clients in grid:
            clients = min(self.max_clients, clients * (1 + replicas))
            if clients not in out:
                out.append(clients)
        return tuple(out)


SCALES = {
    "tiny": ScaleoutScale(replica_counts=(0, 1),
                          grids={"shopping": (60,), "ordering": (60,)},
                          default_grid=(60,), max_clients=240,
                          ramp_up=120.0, measure=150.0, ramp_down=10.0),
    "quick": ScaleoutScale(replica_counts=(0, 1, 2, 4),
                           grids={"shopping": (160, 240),
                                  "ordering": (600, 1000)},
                           default_grid=(160, 240), max_clients=2400,
                           ramp_up=400.0, measure=450.0, ramp_down=10.0),
    "full": ScaleoutScale(replica_counts=(0, 1, 2, 4, 8),
                          grids={"shopping": (160, 240, 320),
                                 "ordering": (600, 1000, 1500)},
                          default_grid=(160, 240, 320), max_clients=4000,
                          ramp_up=500.0, measure=1200.0, ramp_down=30.0),
}


def cluster_for(base_name: str, replicas: int) -> object:
    """The deployment for ``replicas`` read replicas over ``base_name``.

    Front pools are sized to ``1 + replicas`` so the web/servlet tiers
    never cap the curve -- the experiment isolates the database axis.
    Zero replicas is the paper configuration itself.
    """
    front = 1 + replicas
    return topology(base_name, web=front, gen=front, db_replicas=replicas)


@dataclass
class ScaleoutReport:
    """One table per mix: replica count (the rows' ``key``) vs peak
    throughput."""

    title: str
    app_name: str
    scale: str
    mixes: Dict[str, List[SweepRow]] = field(default_factory=dict)

    def render(self) -> str:
        lines = [self.title]
        for mix_name, rows in self.mixes.items():
            base = rows[0].peak.throughput_ipm or 1.0
            header, body = table((
                ("replicas", ">8", lambda r: r.key),
                ("configuration", "  <32", lambda r: r.configuration),
                ("peak ipm", " >9.0f", lambda r: r.peak.throughput_ipm),
                ("at", "  >6", lambda r: r.peak.clients),
                ("gain", "  >6",
                 lambda r: f"{r.peak.throughput_ipm / base:.2f}x"),
                ("primary cpu", "  >11.2f", lambda r: r.peak.cpu.database),
            ), rows)
            lines += ["", f"{self.app_name}/{mix_name} (scale={self.scale})",
                      header, *body]
            last = rows[-1]
            lines.append(f"  -> x{last.peak.throughput_ipm / base:.2f} peak "
                         f"throughput with {last.key} read replicas")
            lines += [f"  bottleneck at {row.key} replica(s): "
                      f"{row.bottleneck}" for row in rows if row.bottleneck]
        return "\n".join(lines)


def run_scaleout(scale: str = "quick", app_name: str = "bookstore",
                 mixes: Optional[Tuple[str, ...]] = None,
                 configs: Optional[str] = None, seed: int = 42,
                 jobs: Optional[int] = None, trace: bool = False,
                 replicas: Optional[Tuple[int, ...]] = None) \
        -> ScaleoutReport:
    """The full experiment: every mix through the replica grid.

    ``configs`` is the paper configuration to cluster for every mix
    (default: per mix from :data:`DEFAULT_BASES`, falling back to
    ``Ws-Servlet-DB(sync)``); ``replicas`` overrides the scale level's
    replica counts.  ``trace`` additionally re-runs each replica
    count's peak point with request-level tracing and records the
    verdict.
    """
    level = scale_level(SCALES, scale)
    report = ScaleoutReport(
        title=f"Scale-out: peak throughput vs database read replicas "
              f"({app_name}, scale={scale})",
        app_name=app_name, scale=scale)
    for mix_name in mixes or DEFAULT_MIXES[app_name]:
        base = configs or DEFAULT_BASES.get(mix_name, "Ws-Servlet-DB(sync)")
        report.mixes[mix_name] = [
            SweepRow(count,
                     point_spec(app_name, mix_name, cluster_for(base, count),
                                1, level, seed),
                     level.clients_for(mix_name, count))
            for count in replicas or level.replica_counts]
    for row in run_rows(sum(report.mixes.values(), []), jobs):
        if trace:
            row.bottleneck = traced(row.spec, row.peak.clients).bottleneck
    return report
