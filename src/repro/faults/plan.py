"""Declarative fault schedules.

A :class:`FaultPlan` is an immutable list of :class:`FaultEvent`\\ s; the
:class:`repro.faults.injector.FaultInjector` executes one against a
running :class:`~repro.topology.simulation.SimulatedSite`.  Plans are
data, so an experiment spec can carry one, tests can generate them with
hypothesis, and the CLI can build one from flags.

Event kinds
-----------
``crash``          a tier's machine goes down at ``at`` and comes back
                   ``duration`` seconds later; in-flight interactions
                   through it abort, locks release, new requests fail fast.
``db_conn_glitch`` new database connections fail for the window (the
                   database machine itself stays up; queries already past
                   connection setup complete normally).
``lan_degrade``    every NIC's bandwidth is multiplied by ``factor`` for
                   the window (congested or renegotiated-down links).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

# Tier names double as the machine names the six configurations use
# (topology/configs.py): a tier absent from a configuration is simply
# not crashable there -- that *is* the failure-containment question.
TIERS: Tuple[str, ...] = ("web", "servlet", "ejb", "db")
KINDS: Tuple[str, ...] = ("crash", "db_conn_glitch", "lan_degrade")

# Cluster configurations (repro.cluster) add pool members "web#2",
# "servlet#3", ... and database read replicas "db.r1", "db.r2", ...;
# cache topologies (repro.cache) add cache nodes "cache", "cache#2",
# ...; sharded topologies (repro.shard) add shard primaries "db.s2",
# "db.s3", ... with per-shard replicas "db.s2.r1", ...; those are
# crashable machines too (a dying cache node costs cold-start misses,
# never errors).
_MEMBER_RE = re.compile(
    r"^(web|servlet|ejb|db|cache)"
    r"(#[0-9]+|(\.s[0-9]+)?\.r[0-9]+|\.s[0-9]+)?$")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what, where, when, and for how long."""

    kind: str                 # one of KINDS
    tier: str = "db"          # target tier (ignored for lan_degrade)
    at: float = 0.0           # virtual time the fault starts
    duration: float = 0.0     # seconds until it clears
    factor: float = 1.0       # lan_degrade bandwidth multiplier

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"have {KINDS}")
        if self.kind != "lan_degrade" and not _MEMBER_RE.match(self.tier):
            raise ValueError(f"unknown tier {self.tier!r}; have {TIERS} "
                             f"plus pool members like 'web#2', replicas "
                             f"like 'db.r1', and shard primaries like "
                             f"'db.s2' (replicas 'db.s2.r1')")
        if self.at < 0:
            raise ValueError(f"fault start must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, "
                             f"got {self.duration}")
        if self.kind == "lan_degrade" and not 0 < self.factor <= 1.0:
            raise ValueError(f"lan_degrade factor must be in (0, 1], "
                             f"got {self.factor}")

    @property
    def clears_at(self) -> float:
        return self.at + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        for event in self.events:
            event.validate()

    def __bool__(self) -> bool:
        return bool(self.events)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.events + other.events)

    def horizon(self) -> float:
        """Virtual time by which every fault has cleared."""
        return max((e.clears_at for e in self.events), default=0.0)

    # -- builders ------------------------------------------------------------

    @staticmethod
    def single_crash(tier: str, at: float, duration: float) -> "FaultPlan":
        """Kill one tier at ``at``, restart it ``duration`` later."""
        return FaultPlan((FaultEvent("crash", tier, at, duration),))

    @staticmethod
    def db_conn_glitch(at: float, duration: float) -> "FaultPlan":
        return FaultPlan((FaultEvent("db_conn_glitch", "db", at, duration),))

    @staticmethod
    def lan_degrade(at: float, duration: float,
                    factor: float) -> "FaultPlan":
        return FaultPlan((FaultEvent("lan_degrade", at=at,
                                     duration=duration, factor=factor),))


EMPTY_PLAN = FaultPlan()
