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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.common import group_by_key
from repro.harness.experiment import point_spec, run_experiment
from repro.harness.parallel import run_points
from repro.metrics.report import ThroughputPoint
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
class TracedProbe:
    """One traced re-run of an arm at a probe client count."""

    clients: int
    verdict: str
    db_lock_share: float
    mean_response_ms: float
    lock_scopes: Dict[str, float] = field(default_factory=dict)
    twopc_commits: int = 0
    twopc_aborts: int = 0
    scatter_queries: int = 0
    cross_shard_spans: int = 0


@dataclass
class ArmResult:
    """Sweep + probes for one (arm, front width)."""

    arm: ShardArm
    configuration: str
    points: List[ThroughputPoint] = field(default_factory=list)
    probes: List[TracedProbe] = field(default_factory=list)

    @property
    def peak(self) -> ThroughputPoint:
        return max(self.points, key=lambda p: p.throughput_ipm)


@dataclass
class ShardReport:
    """Throughput table + traced probe table, one row per arm."""

    title: str
    app_name: str
    mix_name: str
    scale: str
    boxes: int
    rows: List[ArmResult] = field(default_factory=list)

    def render(self) -> str:
        lines = [self.title, "",
                 f"{self.app_name}/{self.mix_name} "
                 f"(scale={self.scale}, {self.boxes} database boxes "
                 f"per arm)"]
        base = next((r for r in self.rows if r.arm.shards == 1), None)
        base_ipm = base.peak.throughput_ipm if base else 0.0
        lines.append(f"{'arm':<12} {'configuration':<34} "
                     f"{'peak ipm':>9}  {'at':>6}  {'vs repl':>8}")
        for row in self.rows:
            peak = row.peak
            rel = (f"{peak.throughput_ipm / base_ipm:>7.2f}x"
                   if base_ipm else f"{'-':>8}")
            lines.append(f"{row.arm.label:<12} {row.configuration:<34} "
                         f"{peak.throughput_ipm:>9.0f}  "
                         f"{peak.clients:>6}  {rel}")
        for row in self.rows:
            shard = getattr(row.peak, "shard", None)
            if shard is not None and row.arm.shards > 1:
                lines.append(
                    f"  {row.arm.label} routing at peak: "
                    f"{shard.single_shard_reads} single-shard reads, "
                    f"{shard.scatter_queries} scatters, "
                    f"{shard.cross_shard_spans} cross-shard spans, "
                    f"{shard.twopc_commits} 2PC commits "
                    f"({shard.twopc_aborts} aborts)")
        probed = [row for row in self.rows if row.probes]
        if probed:
            lines.append("")
            lines.append("traced probes (bottleneck verdict, db lock-wait "
                         "share of request time):")
            for row in probed:
                for probe in row.probes:
                    lines.append(
                        f"  {row.arm.label:<12} @{probe.clients:<5} "
                        f"{probe.verdict:<38} lock={probe.db_lock_share:.2f} "
                        f"resp={probe.mean_response_ms:.0f}ms")
                    if probe.twopc_commits or probe.twopc_aborts:
                        lines.append(
                            f"  {'':12} {'':7}2pc {probe.twopc_commits} "
                            f"commits / {probe.twopc_aborts} aborts, "
                            f"{probe.scatter_queries} scatters, "
                            f"{probe.cross_shard_spans} cross-shard spans")
                    scopes = {s: w for s, w in probe.lock_scopes.items()
                              if s == "db" or s.startswith("db.")}
                    if len(scopes) > 1:
                        split = ", ".join(f"{scope} {waited:.0f}s"
                                          for scope, waited in scopes.items())
                        lines.append(f"  {'':12} {'':7}lock wait by "
                                     f"registry: {split}")
        return "\n".join(lines)


def run_shard(app_name: str = "bookstore",
              mix_name: str = "ordering",
              base_name: Optional[str] = None,
              scale: str = "quick",
              seed: int = 42,
              jobs: Optional[int] = None,
              trace: bool = False) -> ShardReport:
    """The full head-to-head: every arm through the client grid.

    The independent (arm, clients) points run through ``run_points``.
    ``trace`` additionally re-runs each arm at the scale's probe client
    counts with request-level tracing and records the verdict, lock
    shares, and 2PC counters.
    """
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; have {sorted(SCALES)}")
    level = SCALES[scale]
    base_name = base_name or DEFAULT_BASE
    bases = {arm: point_spec(app_name, mix_name,
                             config_for(base_name, arm, level.boxes),
                             1, level, seed)
             for arm in level.arms}
    specs = [replace(bases[arm], clients=clients)
             for arm in level.arms for clients in level.grid]
    keys = [arm for arm in level.arms for __ in level.grid]

    report = ShardReport(
        title=f"Sharding vs replication at equal database box count "
              f"({app_name}/{mix_name}, scale={scale})",
        app_name=app_name, mix_name=mix_name, scale=scale,
        boxes=level.boxes)
    for arm, points in group_by_key(keys, run_points(specs, jobs)).items():
        report.rows.append(ArmResult(
            arm=arm, configuration=bases[arm].config.name, points=points))

    if trace:
        for row in report.rows:
            for clients in level.probe_clients:
                point = run_experiment(replace(
                    bases[row.arm], clients=clients, trace=True))
                bn = point.bottleneck_report
                shard = getattr(point, "shard", None)
                row.probes.append(TracedProbe(
                    clients=clients, verdict=bn.bottleneck,
                    db_lock_share=bn.lock_wait_share("db."),
                    mean_response_ms=1000 * point.mean_response_time,
                    lock_scopes=bn.lock_wait_by_scope(),
                    twopc_commits=getattr(shard, "twopc_commits", 0),
                    twopc_aborts=getattr(shard, "twopc_aborts", 0),
                    scatter_queries=getattr(shard, "scatter_queries", 0),
                    cross_shard_spans=getattr(shard, "cross_shard_spans",
                                              0)))
    return report


def render(scale: str = "quick", **kwargs) -> str:
    return run_shard(scale=scale, **kwargs).render()
