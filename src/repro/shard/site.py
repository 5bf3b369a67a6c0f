"""A clustered site whose database is horizontally partitioned.

:class:`ShardedSite` deploys a ``DB[N]`` topology: N independent write
primaries, each owning one horizontal slice of the schema's partitioned
table groups (see :mod:`repro.shard.routing`), each optionally fronted
by its own replica set (``DB[N](1+R)`` gives every shard R read
replicas with the cluster tier's log shipping and read-your-writes
routing).

The replica sets themselves are the cluster tier's: ``ClusteredSite``
builds one ``ReplicatedDb`` per shard primary (``self.repls``), and
shard 1 *is* the base cluster's database -- same machine name (``db``),
same site-owned lock registry -- so every mechanism the cluster tier
already proved (replica crash rerouting, lag fallbacks, session
watermarks) applies per shard unchanged.
Shards 2..N get private lock registries (``db.s2.items`` ...), which is
the whole point: a checkout's ``LOCK TABLES`` span now serializes only
the sessions that hashed to the *same* shard, so the bookstore ordering
mix's table-lock convoy shrinks by roughly the shard count.

Routing is driver-level, per statement:

* tables within one group -> that group's shard (the fast path; group
  draws are memoized per request, session groups per session);
* an unrouted multi-group read -> scatter-gather: every shard runs a
  ``1/N`` slice, the issuer pays a merge cost per leg;
* writes route by their written group; a ``LOCK TABLES`` span is
  partitioned across the shards its tables live on, and when the span
  wrote two or more shards the ``UNLOCK`` runs two-phase commit
  (:mod:`repro.shard.twopc`) *before* any lock drops.

This class is a database *tier* (DESIGN.md section 13): it replaces
the terminal of the *db_query* seam and the lock/unlock steps.  With a
cache tier attached, the partition-key draw is the cache's per-session
entity draw, so a cached checkout page invalidates on the same shard
that executed the write.

``DB[1]`` never constructs this class (``build_site`` dispatches on
``db_shards > 1``), and nothing here is imported by the paper
configurations -- the import-isolation invariant
``tests/test_axis_isolation.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.cluster.replication import SessionState
from repro.cluster.site import ClusteredSite
from repro.harness.profiles import AppProfile
from repro.shard.routing import ShardScheme, scheme_for, shard_index
from repro.shard.twopc import ShardStats, TwoPcCoordinator, TwoPcCosts
from repro.sim.kernel import Simulator
from repro.sim.resources import acquire_lock
from repro.sim.rng import RngStreams

#: Span name for a scatter-gather read fan-out.
SPAN_SCATTER = "db.scatter"

#: Pseudo-group pinning sessions of a schema with no partition scheme.
HOME_GROUP = "__home__"


@dataclass(frozen=True)
class ShardCosts:
    """Sharding-layer cost constants."""

    #: issuer CPU to merge one shard's partial result into the answer.
    scatter_merge_cpu: float = 0.08e-3
    twopc: TwoPcCosts = field(default_factory=TwoPcCosts)


class ShardedSite(ClusteredSite):
    """A deployed ``DB[N]`` topology under simulation."""

    def __init__(self, sim: Simulator, config, profile: AppProfile,
                 rng: Optional[RngStreams] = None,
                 shard_costs: Optional[ShardCosts] = None,
                 scheme: Optional[ShardScheme] = None, **kwargs):
        spec = getattr(config, "cluster", None)
        if spec is None or getattr(spec, "db_shards", 1) <= 1:
            raise ValueError(f"{config.name!r} has a single shard; use "
                             f"ClusteredSite")
        super().__init__(sim, config, profile, rng=rng, **kwargs)
        self.shard_costs = shard_costs or ShardCosts()
        self.scheme = scheme if scheme is not None \
            else scheme_for(profile.app_name)
        self.n_shards = spec.db_shards
        self.strategy = spec.shard_strategy
        self._session_group_set = frozenset(self.scheme.session_groups) \
            | (frozenset((HOME_GROUP,)) if not self.scheme.groups
               else frozenset())

        # -- shards: the replica sets ClusteredSite built, by index ----------
        self._shard_primaries = tuple(
            r.primary.machine for r in self.repls)
        self._shard_of_primary: Dict[str, int] = {
            m.name: idx for idx, m in enumerate(self._shard_primaries)}

        # -- routing/commit state -------------------------------------------
        # client -> {shard >= 1 -> that shard's RYW session watermark}.
        self._shard_sessions: Dict[int, Dict[int, SessionState]] = {}
        # client -> {session group -> shard} (a session is one customer).
        self._session_shards: Dict[int, Dict[str, int]] = {}
        self.twopc = TwoPcCoordinator(self, self.shard_costs.twopc)
        self.shard_stats = ShardStats()

    # -- sessions -------------------------------------------------------------

    def _shard_session(self, client_id: int, shard: int) -> SessionState:
        if shard == 0:
            return self._session(client_id)
        sessions = self._shard_sessions.setdefault(client_id, {})
        session = sessions.get(shard)
        if session is None:
            session = sessions[shard] = SessionState(client_id)
        return session

    def new_session(self, client_id: int, rng) -> None:
        super().new_session(client_id, rng)
        self._session_shards.pop(client_id, None)
        for session in self._shard_sessions.get(client_id, {}).values():
            session.reset()

    def end_session(self, client_id: int) -> None:
        super().end_session(client_id)
        self._session_shards.pop(client_id, None)
        self._shard_sessions.pop(client_id, None)

    # -- routing: group -> shard ----------------------------------------------

    def _route(self, name, client_id, rng):
        route = super()._route(name, client_id, rng)
        route.shard_groups = {}
        route.shard_writes = set()
        return route

    def _shard_of_group(self, route, group: str) -> int:
        shard = route.shard_groups.get(group)
        if shard is not None:
            return shard
        if group in self._session_group_set:
            per_session = self._session_shards.setdefault(
                route.client_id, {})
            shard = per_session.get(group)
            if shard is None:
                shard = self._draw_shard(route, group)
                per_session[group] = shard
        else:
            shard = self._draw_shard(route, group)
        route.shard_groups[group] = shard
        return shard

    def _draw_shard(self, route, group: str) -> int:
        space = max(1, self.profile.key_spaces.get(group, 1_000_000))
        # The partition-key entity this request targets in ``group``:
        # the cache tier's per-session draw for the group's root table
        # when there is one, so cache keys and shard routing name the
        # same row.
        cache = self.cache
        entity = cache.entity(route, group) if cache is not None \
            else route.rng.randrange(space)
        return shard_index(group, entity, space, self.n_shards,
                           self.strategy)

    def _home_shard(self, route) -> int:
        home = self.scheme.home_group or HOME_GROUP
        return self._shard_of_group(route, home)

    def _statement_shards(self, route, reads, writes):
        """``(shards, scatter?)`` for a statement outside a lock span."""
        scheme = self.scheme
        if writes:
            groups = scheme.groups_of(writes)
            # A statement writing several groups at once does not occur
            # in the shipped profiles; route by the first group if ever.
            shard = self._shard_of_group(route, groups[0]) if groups \
                else self._home_shard(route)
            return (shard,), False
        groups = scheme.groups_of(reads)
        if not groups:
            # Global/local tables only: replicated everywhere, served
            # by the session's home shard.
            return (self._home_shard(route),), False
        if len(groups) == 1:
            return (self._shard_of_group(route, groups[0]),), False
        return tuple(range(self.n_shards)), True

    # -- statement execution ---------------------------------------------------

    def _db_statement(self, step, held_explicit, route, rc=None, label=""):
        writes = step[5]
        stats = self.shard_stats
        if held_explicit:
            stats.span_statements += 1
            yield from self._span_statement(step, held_explicit, route,
                                            rc, label)
            return
        shards, scatter = self._statement_shards(route, step[4], writes)
        if scatter:
            stats.scatter_queries += 1
            yield from self._scatter_read(step, route, shards, rc, label)
            return
        shard = shards[0]
        if writes:
            stats.single_shard_writes += 1
            yield from self._db_access(step, held_explicit, route,
                                       self._shard_primaries[shard],
                                       rc, label)
            return
        stats.single_shard_reads += 1
        repl = self.repls[shard]
        if repl.replicas:
            yield from self._db_read_replicated(
                step, route, repl,
                self._shard_session(route.client_id, shard), rc, label)
        else:
            yield from self._db_access(step, {}, route,
                                       self._shard_primaries[shard],
                                       rc, label)

    def _span_statement(self, step, held_explicit, route, rc=None,
                        label=""):
        """A statement inside a ``LOCK TABLES`` span: run it on the
        shard(s) whose locks the span holds for its tables.  The group
        draws are memoized on the route, so the lock partition and the
        statements always agree on which shard owns what."""
        __, db_cpu, req_bytes, rep_bytes, reads, writes, count = step
        groups = self.scheme.groups_of(writes if writes else reads)
        if not groups:
            shards = (route.span_shards[0],) if route.span_shards \
                else (self._home_shard(route),)
        else:
            shards = tuple(sorted({self._shard_of_group(route, g)
                                   for g in groups}))
        if writes and len(shards) > 1:
            shards = shards[:1]      # as in _statement_shards
        # Shards the span holds locks on run under those locks.  A slice
        # on a shard the span only references is a *reference read*: it
        # runs on that shard's primary without statement locks.  No
        # locks, because mid-span acquisition would violate the global
        # lock order and allow distributed deadlock (span A holds
        # order_line@1 and reads items@2 while span B holds items@2 and
        # waits for order_line@1).  The primary, not a replica, because
        # the span is holding its home shard's write locks while this
        # statement runs: primaries serve only short OLTP statements,
        # while the replicas' CPU queues behind multi-millisecond
        # browsing reads would stretch every span's hold time and
        # re-couple the convoys through the read tier.
        n = len(shards)
        sub = step if n == 1 else (
            step[0], db_cpu / n, req_bytes, max(1, rep_bytes // n),
            reads, writes, count)
        for shard in shards:
            yield from self._db_access(sub, held_explicit, route,
                                       self._shard_primaries[shard],
                                       rc, label)

    def _scatter_read(self, step, route, shards, rc=None, label=""):
        """Fan an unrouted read out to every shard *in parallel* and
        merge: each leg is a ``1/N`` slice of the statement (perfect
        partition pruning) running as its own process, served by the
        shard's replicas when it has them, so the statement waits for
        the slowest shard instead of the sum of all queues.  The issuer
        pays a per-leg merge cost after the join.

        Legs run untraced (a request's span stack is strictly nested,
        and the legs interleave); the parent's ``db.scatter`` span
        captures the whole fan-out latency, and the site-level
        ``db_lock_wait_time`` counter still sees every leg's lock wait.
        """
        __, db_cpu, req_bytes, rep_bytes, reads, __w, count = step
        n = len(shards)
        span = rc.push(SPAN_SCATTER, "db", self.db.name,
                       meta={"shards": n, "origin": label}) \
            if rc is not None else None
        route.scatter_shards = shards
        outcomes: list = []
        try:
            sub = (step[0], db_cpu / n, req_bytes,
                   max(1, rep_bytes // n), reads, (), count)
            procs = [self.sim.spawn(
                self._scatter_leg(sub, route, shard, outcomes),
                name=f"scatter.{self._shard_primaries[shard].name}")
                for shard in shards]
            for proc in procs:
                yield proc
            for kind, exc in outcomes:
                if kind == "err":
                    raise exc
            yield from route.db_client.cpu.execute(
                n * self.shard_costs.scatter_merge_cpu)
        finally:
            route.scatter_shards = ()
            if span is not None:
                rc.pop(span)

    def _scatter_leg(self, sub, route, shard, outcomes):
        """One shard's slice of a scatter read, as its own process.
        Failures become data for the joining parent to re-raise -- an
        exception must never escape a spawned generator into the
        kernel."""
        self.shard_stats.scatter_legs += 1
        try:
            repl = self.repls[shard]
            if repl.replicas:
                yield from self._db_read_replicated(
                    sub, route, repl,
                    self._shard_session(route.client_id, shard))
            else:
                yield from self._db_access(
                    sub, {}, route, self._shard_primaries[shard])
            outcomes.append(("ok", None))
        except BaseException as exc:     # noqa: BLE001 -- relayed, not hidden
            outcomes.append(("err", exc))

    # -- locks: per-shard scoping ----------------------------------------------

    def _db_explicit_lock(self, lock_set, held_explicit, route,
                          rc=None, label=""):
        """LOCK TABLES, partitioned.  Locks are taken only on the span's
        *anchor* shard (where its writes go; globals ride along) and on
        any other shard the span writes -- in sorted table order within
        a fixed shard set, so two spans can never deadlock.

        Shards the span merely *reads* (the checkout pages reading the
        item catalog owned by another shard) get no span lock at all: a
        driver-level sharding layer cannot hold ``LOCK TABLES`` open
        across backends for reads, so those reference reads execute on
        the remote shard's ordinary read path with statement-level
        locking (read-committed on the catalog instead of
        span-serializable).  Without this relaxation every such span
        holds its home shard's write locks while queueing behind the
        remote shard's write-priority convoy, and the per-shard convoys
        couple back into one -- partitioning would buy nothing.  Remote
        *writes* (the stock decrement in checkout) keep their span lock
        on the owning primary and commit through 2PC."""
        if held_explicit:           # MySQL implicitly releases first
            self._db_explicit_unlock(held_explicit)
        scheme = self.scheme
        placed = []
        unplaced = []
        for table, mode in lock_set:
            group = scheme.group_of(table)
            if group is None:
                unplaced.append((table, mode))
            else:
                placed.append((table, mode,
                               self._shard_of_group(route, group)))
        write_shards = {shard for __t, mode, shard in placed
                        if mode == "WRITE"}
        anchor = min(write_shards) if write_shards else \
            min((shard for __t, __m, shard in placed), default=None)
        if anchor is None:
            anchor = self._home_shard(route)
        placed.extend((table, mode, anchor) for table, mode in unplaced)
        locked_shards = write_shards | {anchor}
        participants = tuple(sorted(locked_shards))
        all_shards = {shard for __t, __m, shard in placed}
        if self.down:
            for shard in participants:
                self._check_up(self._shard_primaries[shard])
        route.span_shards = participants
        route.shard_writes.clear()
        if len(all_shards) > 1:
            self.shard_stats.cross_shard_spans += 1
        for table, mode, shard in sorted(placed):
            if shard not in locked_shards:
                continue             # remote reference read: no span lock
            lock = self.repls[shard].primary.table_lock(table)
            waited_from = self.sim.now
            yield from acquire_lock(lock, mode, rc, "db", label)
            self.db_lock_wait_time += self.sim.now - waited_from
            held_explicit[table] = (mode, lock)
        for shard in participants:
            yield from self._shard_primaries[shard].cpu.execute(
                self.costs.db_lock_statement_cpu)

    def _db_unlock_step(self, held_explicit, route, rc=None):
        """UNLOCK TABLES: when the span wrote two or more shards, run
        two-phase commit across them first -- the decision lands before
        any lock is released.  Any failure (participant down, crash
        interrupt) aborts the transaction and still releases every
        lock on the way out."""
        participants = route.span_shards
        writers = sorted(route.shard_writes.intersection(participants))
        try:
            if len(writers) >= 2:
                machines = [self._shard_primaries[s] for s in writers]
                try:
                    yield from self.twopc.transaction(route, machines, rc)
                except BaseException:
                    self.shard_stats.twopc_aborts += 1
                    raise
                self.shard_stats.twopc_commits += 1
        finally:
            self._db_explicit_unlock(held_explicit)
            route.span_shards = ()
            route.shard_writes.clear()
        for shard in participants:
            yield from self._shard_primaries[shard].cpu.execute(
                self.costs.db_lock_statement_cpu)

    # -- commits ---------------------------------------------------------------

    def _ship_commit(self, route, writes, db_cpu: float, db) -> None:
        shard = self._shard_of_primary[db.name]
        self.repls[shard].commit_write(
            self._shard_session(route.client_id, shard), writes, db_cpu)
        route.shard_writes.add(shard)

    # -- fault surface ---------------------------------------------------------

    def crash_victims(self, machine_name: str) -> list:
        shard = self._shard_of_primary.get(machine_name)
        if shard:
            # The primary of shard 2..N: only requests touching that
            # shard die -- the fault-isolation upside of partitioning.
            # (Shard 1's primary is the paper ``db`` every route holds
            # as ``route.db``; it takes every request with it, below.)
            return [proc for proc, route in self._routes.items()
                    if not proc.finished and route.shard_groups is not None
                    and (shard in route.shard_groups.values()
                         or shard in route.span_shards
                         or shard in route.scatter_shards
                         or route.db_busy_on == machine_name)]
        return super().crash_victims(machine_name)
