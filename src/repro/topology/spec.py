"""One topology axis: pools, replicas, and the cache tier, one grammar.

A :class:`TopologySpec` says how many instances each tier runs -- ``web``
Apache front ends, ``gen`` dynamic-content generators (servlet containers
or PHP-capable web boxes), ``db_replicas`` read-only database replicas
behind one write primary, and ``cache_nodes`` memcached-style cache
servers -- plus the replication, balancing, and cache parameters.
:func:`topology` combines a spec with one of the six paper configurations
into a :class:`TopologyConfiguration` whose name spells out the shape::

    Ws{2}-Servlet{4}-DB(1+2)            2 Apaches, 4 servlet engines,
                                        1 primary + 2 read replicas
    Ws-Servlet-Cache{2}-DB              a 2-node cache tier
    Ws-Servlet-DB[4]                    4 shard primaries (repro.shard)
    Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)  all axes composed

and :func:`parse_topology` round-trips any such name (or a paper name)
back to its configuration.  The name encodes the *counts*; tuning
parameters not in the name (replication lag, balancing policies, cache
size/TTLs/mode) parse back to their defaults, exactly as before.

The six paper configurations themselves are untouched: a
``TopologyConfiguration`` is a separate object, and a trivial spec (one
instance everywhere, zero replicas, zero cache nodes) *is* the paper
configuration -- :func:`topology` returns the plain
:class:`~repro.topology.configs.Configuration` unchanged.

Machine naming: instance 1 of a pool keeps the paper machine name
("web", "servlet", "db") so the trivial topology builds the exact same
machines; extra pool members are "web#2", "servlet#3", ...; database
read replicas are "db.r1", "db.r2", ...; cache nodes are "cache",
"cache#2", ....

:func:`clustered` is :func:`topology` without the trivial-spec shortcut:
it always returns a :class:`TopologyConfiguration` and always spells the
``(1+N)`` suffix, so a trivial spec still builds a ``ClusteredSite`` --
the reference the tests compare a paper site against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

from repro.topology.configs import (
    Configuration,
    configuration_by_name,
    configuration_names,
)

#: Balancing policies understood by :class:`repro.cluster.balancer.LoadBalancer`.
POLICIES: Tuple[str, ...] = ("round_robin", "least_connections", "affinity")

#: Cache-tier placement modes (see :mod:`repro.cache`): ``sharded`` hashes
#: each key to one node; ``round_robin`` replicates stores to every node
#: and rotates gets across them.
CACHE_MODES: Tuple[str, ...] = ("sharded", "round_robin")

#: Cache invalidation granularities: ``table`` kills every entry that
#: read a written table; ``key`` spares entries pinned to a different
#: entity of that table.
CACHE_GRANULARITIES: Tuple[str, ...] = ("table", "key")

#: Horizontal-partitioning strategies (see :mod:`repro.shard`): ``hash``
#: spreads a table group's root entities by hash; ``range`` splits the
#: root key space into contiguous stripes.
SHARD_STRATEGIES: Tuple[str, ...] = ("hash", "range")


@dataclass(frozen=True)
class TopologySpec:
    """Instance counts and scale-out parameters for one deployment."""

    web: int = 1                    # Apache front ends
    gen: int = 1                    # servlet containers / PHP web boxes
    db_replicas: int = 0            # read replicas behind the primary
    # Async log shipping: a committed write becomes visible on a replica
    # this many (virtual) seconds after commit.
    replication_lag: float = 0.1
    # Replaying a write on a replica costs this fraction of the
    # statement's primary CPU time.  Statement-based shipping (the
    # C-JDBC/RAIDb model for this stack) re-executes the statement in
    # full, so the default is 1.0; row-based shipping would discount it.
    apply_cost_factor: float = 1.0
    web_policy: str = "least_connections"
    gen_policy: str = "round_robin"
    db_read_policy: str = "least_connections"
    # -- the cache tier (repro.cache) -----------------------------------
    cache_nodes: int = 0            # memcached-style servers; 0 = no tier
    cache_mode: str = "sharded"     # "sharded" | "round_robin"
    cache_mb: float = 64.0          # per-node LRU capacity, simulated MB
    cache_query_ttl: float = 300.0  # query-result entries; <= 0 disables
    cache_page_ttl: float = 120.0   # page-fragment entries; <= 0 disables
    cache_granularity: str = "key"      # "key" | "table" invalidation
    # -- horizontal partitioning (repro.shard) ---------------------------
    # Independent write primaries the schema is partitioned across;
    # 1 = the single-primary paper shape.  With ``db_replicas`` set,
    # every shard gets its own replica set (DB[4](1+1) = 8 boxes).
    db_shards: int = 1
    shard_strategy: str = "hash"    # "hash" | "range" partitioning

    def validate(self) -> None:
        if self.web < 1:
            raise ValueError(f"web pool needs >= 1 instance, got {self.web}")
        if self.gen < 1:
            raise ValueError(f"gen pool needs >= 1 instance, got {self.gen}")
        if self.db_replicas < 0:
            raise ValueError(f"db_replicas must be >= 0, "
                             f"got {self.db_replicas}")
        if self.replication_lag < 0:
            raise ValueError(f"replication_lag must be >= 0, "
                             f"got {self.replication_lag}")
        if self.apply_cost_factor < 0:
            raise ValueError(f"apply_cost_factor must be >= 0, "
                             f"got {self.apply_cost_factor}")
        for role, policy in (("web", self.web_policy),
                             ("gen", self.gen_policy),
                             ("db", self.db_read_policy)):
            if policy not in POLICIES:
                raise ValueError(f"unknown {role} balancing policy "
                                 f"{policy!r}; have {POLICIES}")
        if self.cache_nodes < 0:
            raise ValueError(f"cache_nodes must be >= 0, "
                             f"got {self.cache_nodes}")
        if self.cache_mode not in CACHE_MODES:
            raise ValueError(f"unknown cache mode {self.cache_mode!r}; "
                             f"have {CACHE_MODES}")
        if self.cache_mb <= 0:
            raise ValueError(f"cache_mb must be > 0, got {self.cache_mb}")
        if self.cache_granularity not in CACHE_GRANULARITIES:
            raise ValueError(
                f"unknown cache granularity {self.cache_granularity!r}; "
                f"have {CACHE_GRANULARITIES}")
        if self.db_shards < 1:
            raise ValueError(f"db_shards must be >= 1, "
                             f"got {self.db_shards}")
        if self.shard_strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {self.shard_strategy!r}; "
                f"have {SHARD_STRATEGIES}")

    @property
    def trivial(self) -> bool:
        """One instance per tier, no replicas, no cache, one shard: the
        paper shape."""
        return (self.web == 1 and self.gen == 1 and self.db_replicas == 0
                and self.cache_nodes == 0 and self.db_shards == 1)


def _pool_member_names(base: str, count: int) -> List[str]:
    return [base] + [f"{base}#{i}" for i in range(2, count + 1)]


def _replica_names(base: str, count: int) -> List[str]:
    return [f"{base}.r{i}" for i in range(1, count + 1)]


def _shard_primary_names(base: str, count: int) -> List[str]:
    """Shard 1 keeps the paper machine name so DB[1] builds identical
    machines; extra shards are "db.s2", "db.s3", ..."""
    return [base] + [f"{base}.s{i}" for i in range(2, count + 1)]


@dataclass(frozen=True)
class TopologyConfiguration(Configuration):
    """A paper configuration extended with a topology axis.

    ``placement`` still maps roles to the *first* pool member, so every
    role accessor of the base class keeps working; :meth:`pool` lists a
    role's full pool.  The spec field is named ``cluster`` (what
    ``build_site`` dispatches on); :attr:`topology` is an alias.
    """

    cluster: TopologySpec = field(default_factory=TopologySpec)
    base_name: str = ""   # the underlying paper configuration's name

    @property
    def topology(self) -> TopologySpec:
        return self.cluster

    def machine_names(self) -> List[str]:
        spec = self.cluster
        web_m = self.placement["web"]
        db_m = self.placement["db"]
        gen_m = self.placement["gen"]
        names: List[str] = []
        for name in super().machine_names():
            if name == web_m:
                # colocated web+gen pools are the same machines
                names.extend(_pool_member_names(name, spec.web))
            elif name == gen_m:
                names.extend(_pool_member_names(name, spec.gen))
            elif name == db_m:
                # the cache tier sits between the generators and the DB
                names.extend(self.cache_node_names())
                for primary in _shard_primary_names(name, spec.db_shards):
                    names.append(primary)
                    names.extend(_replica_names(primary, spec.db_replicas))
            else:
                names.append(name)      # the EJB server is not pooled
        return names

    def pool(self, role: str) -> List[str]:
        """Machine names of ``role``'s pool, first member first."""
        if role == "cache":
            return self.cache_node_names()
        base = self.machine_of(role)
        if role == "web" or (role == "gen" and self.colocated("web", "gen")):
            return _pool_member_names(base, self.cluster.web)
        if role == "gen":
            return _pool_member_names(base, self.cluster.gen)
        if role == "db":
            return [base]               # writes go to the primary only
        return [base]

    def db_shard_names(self) -> List[str]:
        """Shard primary machine names; ``["db"]`` when un-sharded."""
        return _shard_primary_names(self.machine_of("db"),
                                    self.cluster.db_shards)

    def shard_replica_names(self, primary: str) -> List[str]:
        """Replica machine names behind one shard primary."""
        return _replica_names(primary, self.cluster.db_replicas)

    def cache_node_names(self) -> List[str]:
        if self.cluster.cache_nodes <= 0:
            return []
        return _pool_member_names("cache", self.cluster.cache_nodes)

    @property
    def base_configuration(self) -> Configuration:
        return configuration_by_name(self.base_name)


def _topology_name(base: Configuration, spec: TopologySpec,
                   legacy: bool = False) -> str:
    """``Ws{2}-Servlet{4}-Cache{2}-DB(1+2)`` style names from base + spec.

    Canonical names omit the ``(1+0)`` replica suffix; ``legacy=True``
    is the :func:`clustered` naming, which always spells it out.
    """
    parts = base.name.split("-")
    out = []
    for i, part in enumerate(parts):
        if part.startswith("DB"):
            if spec.cache_nodes == 1:
                out.append("Cache")
            elif spec.cache_nodes > 1:
                out.append(f"Cache{{{spec.cache_nodes}}}")
            if spec.db_shards > 1:
                part = f"{part}[{spec.db_shards}]"
            if legacy or spec.db_replicas:
                part = f"{part}(1+{spec.db_replicas})"
        elif i == 0 and spec.web > 1:
            part = f"{part}{{{spec.web}}}"
        elif part == "Servlet" and spec.gen > 1:
            part = f"{part}{{{spec.gen}}}"
        out.append(part)
    return "-".join(out)


def _resolve_base(base) -> Configuration:
    if isinstance(base, str):
        base = configuration_by_name(base)
    if isinstance(base, TopologyConfiguration):
        raise ValueError(f"{base.name!r} is already a cluster configuration")
    return base


def _combine(base: Configuration, spec: TopologySpec,
             name: str = None, legacy: bool = False) -> TopologyConfiguration:
    spec.validate()
    if base.colocated("web", "gen") and spec.gen != spec.web:
        if spec.gen == 1:
            spec = replace(spec, gen=spec.web)
        else:
            raise ValueError(
                f"configuration {base.name!r} colocates web and gen; "
                f"their pool is sized by 'web' (web={spec.web}, "
                f"gen={spec.gen} conflict)")
    if name is None:
        name = _topology_name(base, spec, legacy=legacy)
    return TopologyConfiguration(
        name=name, flavor=base.flavor,
        placement=dict(base.placement), cluster=spec, base_name=base.name)


def _spec_from_args(spec, kwargs) -> TopologySpec:
    if spec is None:
        return TopologySpec(**kwargs)
    if kwargs:
        raise ValueError("pass either a TopologySpec or keyword arguments, "
                         "not both")
    return spec


def topology(base, spec: TopologySpec = None, **kwargs):
    """Combine a paper configuration with a :class:`TopologySpec`.

    ``base`` is a :class:`Configuration` or its name; ``spec`` or the
    keyword arguments parameterize the topology (``topology(
    "Ws-Servlet-DB", cache_nodes=2, db_replicas=1)``).  When web and gen
    share a machine (the colocated configurations) the shared pool is
    sized by ``web``; a conflicting explicit ``gen`` count is an error.

    A trivial spec returns the paper configuration itself: the topology
    axis is strictly opt-in, and a name like ``Ws-Servlet-Cache{0}-DB``
    canonicalizes to plain ``Ws-Servlet-DB``.
    """
    base = _resolve_base(base)
    spec = _spec_from_args(spec, kwargs)
    spec.validate()
    if spec.trivial:
        return base
    return _combine(base, spec)


def clustered(base, spec: TopologySpec = None,
              **kwargs) -> TopologyConfiguration:
    """:func:`topology` without the trivial-spec shortcut: always returns
    a :class:`TopologyConfiguration` (even for a trivial spec) named
    with an explicit ``(1+N)`` suffix."""
    base = _resolve_base(base)
    return _combine(base, _spec_from_args(spec, kwargs), legacy=True)


_DB_PART_RE = re.compile(r"^(?P<db>DB(\(sync\))?)"
                         r"(\[(?P<shards>\d+)\])?"
                         r"(\((?P<primary>\d+)\+(?P<replicas>\d+)\))?$")
_POOL_RE = re.compile(r"^(?P<stem>.+?)\{(?P<count>\d+)\}$")

GRAMMAR_HELP = """\
configuration name grammar:
  <Paper>                              one of the six paper configurations
  Ws{2}-Servlet{4}-DB(1+2)             tier pools + 1 primary / 2 read replicas
  Ws-Servlet-Cache{2}-DB               a 2-node cache tier (bare Cache = 1)
  Ws-Servlet-DB[4]                     4 independent shard primaries
  Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1) the axes compose; (1+N) replicas
                                       are per shard
{N} pool markers go on the web (first) and Servlet segments; the EJB
tier is never pooled; the Cache segment sits before DB; a missing
(1+N) suffix means no replicas, a missing [N] means one shard.
Cache{0} / (1+0) / [1] / {1} are the paper shape and canonicalize to
the plain paper configuration."""


def _reject(name: str, token: str, why: str) -> None:
    """Raise the parse error contract: the offending token, the reason,
    and the full grammar, every time."""
    raise KeyError(f"{name!r}: {why} (offending token {token!r})\n"
                   f"{GRAMMAR_HELP}")


def _parse_name(name: str):
    """``name`` -> (base Configuration, TopologySpec) or KeyError."""
    parts = name.split("-")
    m = _DB_PART_RE.match(parts[-1])
    if m is None:
        _reject(name, parts[-1],
                "is not a configuration name (expected a DB / DB[N] / "
                "DB(1+N) final segment)")
    if m.group("primary") not in (None, "1"):
        _reject(name, parts[-1], "only one write primary is supported "
                                 "per shard")
    if m.group("shards") == "0":
        _reject(name, parts[-1], "a database needs at least one shard")
    shards = int(m.group("shards") or 1)
    replicas = int(m.group("replicas") or 0)
    web = gen = 1
    cache_nodes = 0
    stripped: List[str] = []
    for raw in parts[:-1]:
        pm = _POOL_RE.match(raw)
        segment, count = raw, 1
        if pm is not None:
            segment, count = pm.group("stem"), int(pm.group("count"))
        if segment == "Cache":
            cache_nodes = count
            continue
        if not stripped:
            web = count                 # first tier segment: the web pool
        elif segment == "Servlet":
            gen = count
        elif count != 1:
            _reject(name, raw, f"tier {segment!r} cannot be pooled")
        stripped.append(segment)
    base_name = "-".join(stripped + [m.group("db")])
    try:
        base = configuration_by_name(base_name)
    except KeyError:
        _reject(name, base_name,
                f"no paper configuration named {base_name!r} to cluster")
    return base, TopologySpec(web=web, gen=gen, db_replicas=replicas,
                              cache_nodes=cache_nodes, db_shards=shards)


def parse_topology(name: str):
    """Round-trip any configuration name back to its configuration.

    Paper names return the plain :class:`Configuration`; topology names
    return a :class:`TopologyConfiguration` (with default lag / policy /
    cache-tuning parameters).  A name that spells a trivial topology
    (``Ws-Servlet-DB(1+0)``, ``WsPhp-Cache{0}-DB``) canonicalizes to the
    plain paper configuration.
    """
    try:
        return configuration_by_name(name)
    except KeyError:
        pass
    base, spec = _parse_name(name)
    if spec.trivial:
        return base
    return _combine(base, spec, name=name)


def validate_config_names(names: Sequence[str],
                          paper_only: bool = False) -> List[str]:
    """Validate configuration names for CLI use; return error strings.

    ``paper_only`` restricts to the six paper names (for subcommands
    that layer their own topology axis on top of a base configuration).
    An empty return means every name is acceptable.
    """
    errors: List[str] = []
    for name in names:
        try:
            if paper_only:
                configuration_by_name(name)
            else:
                parse_topology(name)
        except KeyError as exc:
            # A paper-name miss says no more than the known list below.
            detail = "" if paper_only else f": {exc.args[0]}"
            errors.append(f"unknown configuration {name!r}{detail}")
        except ValueError as exc:
            errors.append(f"bad configuration {name!r}: {exc}")
    if errors:
        errors.append("known configurations: "
                      + ", ".join(configuration_names()))
        # Parse errors already carry the grammar; only append it when
        # no error did (paper-name typos raise without it).
        if not paper_only and not any(GRAMMAR_HELP in e for e in errors):
            errors.append(GRAMMAR_HELP)
    return errors
