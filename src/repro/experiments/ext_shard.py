"""Extension experiment: sharding vs replication at equal box count.

Read replicas (:mod:`repro.cluster`, ``ext_scaleout``) do nothing for
the write convoy of the bookstore **ordering** mix: every checkout's
``LOCK TABLES`` span still serializes on the one write primary, and the
traced verdict stays ``db-locks`` no matter how many replicas replay
the stream.  This experiment spends the same database box budget three
ways and lets the traced verdicts arbitrate:

* **pure replication** -- ``DB(1+r)``: one primary, ``r`` replicas;
* **pure sharding** -- ``DB[N]`` (:mod:`repro.shard`): the customer- and
  item-rooted table groups split across ``N`` independent primaries,
  each with its own lock registry and its own convoy;
* **sharding + replication** -- ``DB[N](1+r)``: fewer shards, each with
  a replica set to absorb the read herd.

Every arm at one scale uses the *same* number of database machines and
the same front pools, so the comparison is architecture, not hardware.
Two probe points matter:

* at **moderate load** the verdict migrates: the replication arm reads
  ``db-locks`` while the >= 4-shard arms read ``unsaturated``, and the
  shard-aware lock table shows the one big ``db`` wait-registry split
  into N small per-shard ones;
* at **high load** the sharded arms win on throughput (measured at 8
  boxes: ``DB[2](1+3)`` and ``DB[4](1+1)`` beat ``DB(1+7)`` by 15-20%),
  because each shard's convoy serializes only its own entity group and
  two-phase commit (checkout) is cheap next to the lock waits it
  dissolves.

At *small* box counts replication can still win -- ``DB(1+3)`` beats
``DB[4]`` at 4 boxes because three read boxes outweigh four short
convoys -- which is why the headline scales run 8 database boxes.

``--trace`` re-runs each arm at the probe points with request-level
tracing (:mod:`repro.obs`) and appends the bottleneck verdict, the
traced db lock-wait share, the per-registry wait split, and the 2PC
counters.

Run:  python -m repro shard [--scale tiny|quick|full] [--trace]
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
from repro.metrics.report import ThroughputPoint, table
from repro.topology.spec import topology

#: The ordering mix on the explicit-locking servlet flavor: the paper's
#: write-lock-bound corner, where replication stalls and sharding pays.
DEFAULT_BASE = "Ws-Servlet-DB"
DEFAULT_MIXES = {"bookstore": ("ordering",), "auction": ("bidding",),
                 "bboard": ("submission",)}


@dataclass(frozen=True)
class ShardArm:
    """One way to spend the database box budget."""

    shards: int
    replicas: int

    @property
    def boxes(self) -> int:
        return self.shards * (1 + self.replicas)

    @property
    def label(self) -> str:
        db = "DB" if self.shards == 1 else f"DB[{self.shards}]"
        if self.replicas:
            db += f"(1+{self.replicas})"
        return db


@dataclass(frozen=True)
class ShardScale:
    """Arms, client grid, probe points, and phases for one scale level.

    Every arm spends ``boxes`` database machines; front pools are sized
    to ``boxes`` so the web/servlet tiers never cap the curve.  The
    client ``grid`` brackets the throughput crossover (probed: the
    8-box arms separate past ~2400 clients); ``probe_clients`` are the
    traced points -- a moderate-load one where the verdicts migrate and
    a high-load one at the throughput peak.
    """

    boxes: int
    arms: Tuple[ShardArm, ...]
    grid: Tuple[int, ...]
    probe_clients: Tuple[int, ...]
    ramp_up: float
    measure: float
    ramp_down: float


SCALES = {
    "tiny": ShardScale(boxes=2,
                       arms=(ShardArm(1, 1), ShardArm(2, 0)),
                       grid=(200,), probe_clients=(200,),
                       ramp_up=40.0, measure=80.0, ramp_down=5.0),
    "quick": ShardScale(boxes=8,
                        arms=(ShardArm(1, 7), ShardArm(2, 3),
                              ShardArm(4, 1), ShardArm(8, 0)),
                        grid=(500, 2800), probe_clients=(500, 2800),
                        ramp_up=40.0, measure=80.0, ramp_down=5.0),
    "full": ShardScale(boxes=8,
                       arms=(ShardArm(1, 7), ShardArm(2, 3),
                             ShardArm(4, 1), ShardArm(8, 0)),
                       grid=(400, 800, 1600, 2800, 4000),
                       probe_clients=(500, 4000),
                       ramp_up=40.0, measure=80.0, ramp_down=5.0),
}


def config_for(base_name: str, arm: ShardArm, front: int):
    """The deployment for one arm: ``front``-wide web/servlet pools over
    ``arm.shards`` primaries with ``arm.replicas`` replicas each."""
    return topology(base_name, web=front, gen=front,
                    db_replicas=arm.replicas, db_shards=arm.shards)


@dataclass
class ShardReport:
    """Throughput table + traced probe table, one row per arm (the
    rows' ``key``); ``probes`` holds each arm's traced points."""

    title: str
    app_name: str
    mix_name: str
    scale: str
    boxes: int
    rows: List[SweepRow] = field(default_factory=list)
    probes: Dict[ShardArm, List[ThroughputPoint]] = field(
        default_factory=dict)

    def render(self) -> str:
        base = next((r for r in self.rows if r.key.shards == 1), None)
        base_ipm = base.peak.throughput_ipm if base else 0.0
        header, body = table((
            ("arm", "<12", lambda r: r.key.label),
            ("configuration", " <34", lambda r: r.configuration),
            ("peak ipm", " >9.0f", lambda r: r.peak.throughput_ipm),
            ("at", "  >6", lambda r: r.peak.clients),
            ("vs repl", "  >8",
             lambda r: f"{r.peak.throughput_ipm / base_ipm:.2f}x"
             if base_ipm else "-"),
        ), self.rows)
        lines = [self.title, "",
                 f"{self.app_name}/{self.mix_name} "
                 f"(scale={self.scale}, {self.boxes} database boxes "
                 f"per arm)", header, *body]
        for row in self.rows:
            shard = getattr(row.peak, "shard", None)
            if shard is not None and row.key.shards > 1:
                lines.append(
                    f"  {row.key.label} routing at peak: "
                    f"{shard.single_shard_reads} single-shard reads, "
                    f"{shard.scatter_queries} scatters, "
                    f"{shard.cross_shard_spans} cross-shard spans, "
                    f"{shard.twopc_commits} 2PC commits "
                    f"({shard.twopc_aborts} aborts)")
        if self.probes:
            lines += ["", "traced probes (bottleneck verdict, db lock-wait "
                          "share of request time):"]
        for arm, points in self.probes.items():
            for point in points:
                verdict = point.bottleneck_report
                lines.append(
                    f"  {arm.label:<12} @{point.clients:<5} "
                    f"{verdict.bottleneck:<38} "
                    f"lock={verdict.lock_wait_share('db.'):.2f} "
                    f"resp={1000 * point.mean_response_time:.0f}ms")
                shard = getattr(point, "shard", None)
                if shard and (shard.twopc_commits or shard.twopc_aborts):
                    lines.append(
                        f"  {'':12} {'':7}2pc {shard.twopc_commits} "
                        f"commits / {shard.twopc_aborts} aborts, "
                        f"{shard.scatter_queries} scatters, "
                        f"{shard.cross_shard_spans} cross-shard spans")
                scopes = {s: w for s, w
                          in verdict.lock_wait_by_scope().items()
                          if s == "db" or s.startswith("db.")}
                if len(scopes) > 1:
                    split = ", ".join(f"{scope} {waited:.0f}s"
                                      for scope, waited in scopes.items())
                    lines.append(f"  {'':12} {'':7}lock wait by "
                                 f"registry: {split}")
        return "\n".join(lines)


def run_shard(scale: str = "quick", app_name: str = "bookstore",
              mixes: Optional[Tuple[str, ...]] = None,
              configs: Optional[str] = None, seed: int = 42,
              jobs: Optional[int] = None, trace: bool = False) \
        -> ShardReport:
    """The full head-to-head: every arm through the client grid.

    ``mixes`` names the one mix to run, ``configs`` the base
    configuration (default :data:`DEFAULT_BASE`).  ``trace``
    additionally re-runs each arm at the scale's probe client counts
    with request-level tracing; the report prints the verdict, lock
    shares, and 2PC counters of those points.
    """
    level = scale_level(SCALES, scale)
    mix_name, = mixes or DEFAULT_MIXES[app_name]
    report = ShardReport(
        title=f"Sharding vs replication at equal database box count "
              f"({app_name}/{mix_name}, scale={scale})",
        app_name=app_name, mix_name=mix_name, scale=scale,
        boxes=level.boxes)
    report.rows = run_rows(
        [SweepRow(arm,
                  point_spec(app_name, mix_name,
                             config_for(configs or DEFAULT_BASE, arm,
                                        level.boxes),
                             1, level, seed),
                  level.grid)
         for arm in level.arms], jobs)
    if trace and level.probe_clients:
        report.probes = {row.key: [traced(row.spec, clients)
                                   for clients in level.probe_clients]
                         for row in report.rows}
        for points in report.probes.values():
            for point in points:
                # The report prints verdicts; up to 200K retained spans
                # per probe are not worth holding for that.
                del point.tracer
    return report
