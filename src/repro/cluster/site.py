"""A :class:`SimulatedSite` with replicated tiers behind load balancers.

:class:`ClusteredSite` keeps every mechanism of the base site -- the
same cost tables, lock semantics, fault surface and tracing hooks --
and adds the scale-out plumbing of a :class:`TopologyConfiguration`:

* per-request routing: the web and servlet pools sit behind
  :class:`~repro.cluster.balancer.LoadBalancer` instances, and the
  route (which machines, which Apache process pool, which sync-lock
  registry) travels with the request;
* one :class:`~repro.cluster.replication.ReplicatedDb` per write
  primary (exactly one unless :class:`~repro.shard.site.ShardedSite`
  partitions the database): writes and explicit ``LOCK TABLES`` spans
  go to the primary, plain reads go to caught-up replicas
  (read-your-writes per session), and committed writes ship
  asynchronously to every replica;
* the notifications an attached cache tier (``self.cache``, None
  without cache nodes) needs: commits (after log shipping), session
  start/end, crashes of its nodes;
* crash containment: when a pool member crashes, only the requests
  routed *through that member* are interrupted, and interrupted
  requests re-route through the balancer instead of aborting (unless
  they already committed a write -- those surface the error so the
  client's retry policy decides).

A trivial cluster (1 web, 1 gen, 0 replicas) takes none of the new
paths that schedule events or draw RNG, so its reports are field-for-
field identical to the paper configuration it wraps
(``tests/test_cluster_site.py``, ``tests/test_axis_isolation.py``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.balancer import LoadBalancer
from repro.cluster.replication import DbInstance, ReplicatedDb, SessionState
from repro.faults.errors import TierDown
from repro.harness.profiles import AppProfile
from repro.sim.kernel import Interrupt, Simulator
from repro.sim.resources import Resource, RWLock
from repro.sim.rng import RngStreams
from repro.topology.simulation import SimulatedSite
from repro.topology.spec import TopologyConfiguration
from repro.web.server import SPAN_LB_ROUTE


class ClusterRoute:
    """The machines (and bookkeeping) serving one request."""

    __slots__ = ("web", "gen", "ejb", "db", "db_client", "web_processes",
                 "session", "client_id", "web_token", "gen_token",
                 "db_busy_on", "writes_committed", "interaction", "rng",
                 "cache_keys", "cache_seq", "shard_groups", "span_shards",
                 "shard_writes", "scatter_shards")

    def __init__(self, web, gen, ejb, db, db_client, web_processes,
                 session, client_id, web_token, gen_token, interaction,
                 rng):
        self.web = web
        self.gen = gen
        self.ejb = ejb
        self.db = db                  # the write primary
        self.db_client = db_client
        self.web_processes = web_processes
        self.session = session
        self.client_id = client_id
        self.web_token = web_token    # balancer slots to release
        self.gen_token = gen_token
        self.db_busy_on = None        # replica currently serving a read
        self.writes_committed = 0     # commits by *this* attempt
        self.interaction = interaction
        self.rng = rng                # the request's stream (entity draws)
        self.cache_keys = None        # table -> entity (cache tier's memo)
        self.cache_seq = 0            # cacheable-query ordinal in request
        self.shard_groups = None      # group -> shard, set by the sharded site
        self.span_shards = ()         # shards locked by the current span
        self.shard_writes = None      # shards written (sharded site only)
        self.scatter_shards = ()      # shards a scatter-gather is touching


class ClusteredSite(SimulatedSite):
    """A deployed cluster configuration under simulation."""

    def __init__(self, sim: Simulator, config: TopologyConfiguration,
                 profile: AppProfile, rng: Optional[RngStreams] = None,
                 **kwargs):
        if not isinstance(config, TopologyConfiguration):
            raise TypeError(f"ClusteredSite needs a TopologyConfiguration, "
                            f"got {config.name!r}; wrap it with "
                            f"repro.topology.spec.topology()")
        super().__init__(sim, config, profile, **kwargs)
        spec = config.cluster
        rng = rng if rng is not None else RngStreams(42)
        is_up = lambda name: name not in self.down   # noqa: E731

        # -- web / gen pools ------------------------------------------------
        web_names = config.pool("web")
        self.web_pool = [self.machines[n] for n in web_names]
        # One Apache process pool per front end; member 1 *is* the base
        # site's pool object, so tests and admission control see it.
        self._web_processes: Dict[str, Resource] = {
            self.web.name: self.web_processes}
        for machine in self.web_pool[1:]:
            self._web_processes[machine.name] = Resource(
                sim, capacity=self.web_config.max_processes,
                name=f"httpd@{machine.name}")
        self.web_lb = LoadBalancer(
            "lb.web", web_names, policy=spec.web_policy,
            rng=rng.stream("cluster.lb.web"), is_up=is_up)

        if config.colocated("web", "gen"):
            self.gen_pool = self.web_pool
            self.gen_lb = None        # the web pick is the gen pick
        else:
            gen_names = config.pool("gen")
            self.gen_pool = [self.machines[n] for n in gen_names]
            self.gen_lb = LoadBalancer(
                "lb.gen", gen_names, policy=spec.gen_policy,
                rng=rng.stream("cluster.lb.gen"), is_up=is_up)
        # Each servlet engine is its own JVM: private sync-lock
        # registry per pool member (member 1 shares the base site's, so
        # the trivial cluster and the tests see the same dict).
        self._sync_registries: Dict[str, Dict[str, RWLock]] = {
            machine.name: {} for machine in self.gen_pool}
        self._sync_registries[self.gen.name] = self._sync_locks

        # -- replicated database: one replica set per write primary --------
        # The first primary *is* the paper ``db``: it shares the site's
        # own lock registry and keeps the un-sharded RNG stream name, so
        # one primary without replicas is the paper database exactly.
        write_priority = self.costs.db_write_priority
        self._db_instances: Dict[str, DbInstance] = {}
        # replica machine name -> the replica set it belongs to.
        self._replica_sets: Dict[str, ReplicatedDb] = {}
        repls = []
        for primary_name in config.db_shard_names():
            first = primary_name == self.db.name
            primary = DbInstance(
                sim, self.machines[primary_name],
                write_priority=write_priority, is_primary=True,
                table_locks=self._table_locks if first else None)
            replica_names = config.shard_replica_names(primary_name)
            replicas = [DbInstance(sim, self.machines[n],
                                   write_priority=write_priority)
                        for n in replica_names]
            read_lb = LoadBalancer(
                f"lb.{primary_name}", replica_names or [primary_name],
                policy=spec.db_read_policy,
                rng=rng.stream("cluster.lb.db" if first
                               else f"shard.lb.{primary_name}"),
                is_up=is_up)
            repl = ReplicatedDb(
                sim, self, primary, replicas,
                replication_lag=spec.replication_lag,
                apply_cost_factor=spec.apply_cost_factor, balancer=read_lb)
            repls.append(repl)
            self._db_instances[primary_name] = primary
            for replica in replicas:
                self._db_instances[replica.machine.name] = replica
                self._replica_sets[replica.machine.name] = repl
        self.repls = tuple(repls)
        self.repl = repls[0]          # the paper primary's replica set
        self._cache_node_names = frozenset(config.cache_node_names())

        # -- routing state --------------------------------------------------
        self._sessions: Dict[int, SessionState] = {}
        self._routes: Dict[object, ClusterRoute] = {}
        self._pool_names: Dict[str, tuple] = {}
        if len(web_names) > 1:
            members = tuple(web_names)
            for name in members:
                self._pool_names[name] = members
        if self.gen_lb is not None and len(self.gen_pool) > 1:
            members = tuple(m.name for m in self.gen_pool)
            for name in members:
                self._pool_names[name] = members
        self.reroutes = 0             # requests resubmitted by a balancer

    # -- sessions -------------------------------------------------------------

    def _session(self, client_id: int) -> SessionState:
        session = self._sessions.get(client_id)
        if session is None:
            session = SessionState(client_id)
            self._sessions[client_id] = session
        return session

    def new_session(self, client_id: int, rng) -> None:
        """Session start: fresh consistency watermark, fresh affinity."""
        self._session(client_id).reset()
        self._forget_session(client_id)

    def end_session(self, client_id: int) -> None:
        """Session end: release the sticky balancer bindings so an
        affinity pool re-spreads when the client comes back."""
        self._forget_session(client_id)

    def _forget_session(self, client_id: int) -> None:
        self.web_lb.forget_session(client_id)
        if self.gen_lb is not None:
            self.gen_lb.forget_session(client_id)
        for repl in self.repls:
            repl.balancer.forget_session(client_id)
        if self.cache is not None:
            self.cache.forget_session(client_id)

    # -- routing --------------------------------------------------------------

    def _route(self, name: str, client_id: int, rng) -> ClusterRoute:
        session = self._session(client_id)
        web_token = self._acquire_member(self.web_lb, client_id)
        web = self.machines[web_token] if web_token is not None \
            else self.web_pool[0]
        if self.gen_lb is None:
            gen, gen_token = web, None
        else:
            try:
                gen_token = self._acquire_member(self.gen_lb, client_id)
            except BaseException:
                if web_token is not None:
                    self.web_lb.release(web_token)
                raise
            gen = self.machines[gen_token] if gen_token is not None \
                else self.gen_pool[0]
        db_client = self.ejb if self.config.flavor == "ejb" else gen
        route = ClusterRoute(
            web=web, gen=gen, ejb=self.ejb, db=self.db,
            db_client=db_client,
            web_processes=self._web_processes[web.name],
            session=session, client_id=client_id,
            web_token=web_token, gen_token=gen_token,
            interaction=name, rng=rng)
        if self._track_inflight:
            proc = self.sim.current_process
            if proc is not None:
                self._routes[proc] = route
        tracer = self.sim.tracer
        if tracer is not None and len(self.web_pool) > 1:
            rc = tracer.current()
            if rc is not None:
                span = rc.push(SPAN_LB_ROUTE, "lb", web.name,
                               meta={"web": web.name, "gen": gen.name,
                                     "policy": self.web_lb.policy})
                rc.pop(span)
        return route

    @staticmethod
    def _acquire_member(balancer: LoadBalancer,
                        client_id: int) -> Optional[str]:
        """Pick a pool member; with the whole pool down, fall back to
        member 1 un-acquired so the request fails at exactly the point
        the single-machine site would fail (down-check in the replay
        path), keeping trivial-cluster fault runs identical."""
        try:
            return balancer.acquire(session_key=client_id)
        except TierDown:
            return None

    def _end_route(self, route: ClusterRoute) -> None:
        if route.web_token is not None:
            self.web_lb.release(route.web_token)
        if route.gen_token is not None:
            self.gen_lb.release(route.gen_token)
        if self._routes:
            proc = self.sim.current_process
            if proc is not None and self._routes.get(proc) is route:
                del self._routes[proc]

    def _dispatch(self, variant, name, client_id, rng):
        attempts = 0
        while True:
            route = self._route(name, client_id, rng)
            try:
                yield from self._front(variant, name, rng, route)
                return
            except Interrupt as exc:
                cause = exc.cause
                machine = cause.machine if isinstance(cause, TierDown) \
                    else None
                if machine is None \
                        or not self._reroutable(machine, route, attempts):
                    raise
            except TierDown as exc:
                if not self._reroutable(exc.machine, route, attempts):
                    raise
            finally:
                self._end_route(route)
            attempts += 1
            self.reroutes += 1

    def _reroutable(self, machine: str, route: ClusterRoute,
                    attempts: int) -> bool:
        """Can the balancer resubmit this attempt elsewhere?  Only when
        the failed machine belongs to a replicated pool with a live
        sibling and the attempt has not committed a write (resubmitting
        a committed purchase would double it; the client retry policy
        owns that decision)."""
        if route.writes_committed:
            return False
        pool = self._pool_names.get(machine)
        if pool is None:
            return False
        if attempts + 1 >= len(pool):
            return False
        return any(m not in self.down for m in pool)

    # -- database routing -----------------------------------------------------

    def _db_statement(self, step, held_explicit, route, rc=None, label=""):
        repl = self.repl
        writes = step[5]
        # Writes and LOCK TABLES spans always execute on the primary;
        # so does everything when there are no replicas (identity).
        if held_explicit or writes or not repl.replicas:
            yield from self._db_access(step, held_explicit, route,
                                       self.db, rc, label)
            return
        yield from self._db_read_replicated(step, route, repl,
                                            route.session, rc, label)

    def _db_read_replicated(self, step, route, repl, session,
                            rc=None, label=""):
        """Serve one read via ``repl``'s balancer + read-your-writes
        routing, resubmitting on a replica crash.  Shared by the
        replicated and sharded sites (the latter passes each shard's own
        ``ReplicatedDb`` and per-shard session)."""
        while True:
            instance, token = repl.route_read(session, rc)
            if token is not None:
                route.db_busy_on = instance.machine.name
            try:
                yield from self._db_access(step, {}, route,
                                           instance.machine, rc, label)
                return
            except Interrupt as exc:
                cause = exc.cause
                if token is None or not isinstance(cause, TierDown) \
                        or cause.machine != instance.machine.name:
                    raise
                # The crashed replica is marked down before the
                # interrupt lands, so the next route excludes it and
                # the read resubmits on a survivor (or the primary).
                self.reroutes += 1
            finally:
                if token is not None:
                    repl.release_read(token)
                    route.db_busy_on = None

    def _instance_table_lock(self, db, table: str) -> RWLock:
        return self._db_instances[db.name].table_lock(table)

    def _note_commit(self, route: ClusterRoute, writes,
                     db_cpu: float, db) -> None:
        self._ship_commit(route, writes, db_cpu, db)
        route.writes_committed += 1
        if self.cache is not None:
            # After log shipping, so an invalidated entry can only be
            # re-filled by a read routed behind this commit.
            self.cache.committed(route, writes)

    def _ship_commit(self, route: ClusterRoute, writes, db_cpu: float,
                     db) -> None:
        """Log-ship one commit to the replicas of the primary ``db``
        (the sharded site picks that shard's replica set)."""
        self.repl.commit_write(route.session, writes, db_cpu)

    # -- fault surface --------------------------------------------------------

    def mark_down(self, machine_name: str) -> None:
        super().mark_down(machine_name)
        if self.cache is not None \
                and machine_name in self._cache_node_names:
            self.cache.node_crashed(machine_name)

    def mark_up(self, machine_name: str) -> None:
        super().mark_up(machine_name)
        for repl in self.repls:
            repl.notify_up(machine_name)

    def crash_victims(self, machine_name: str) -> list:
        if machine_name in self._cache_node_names:
            # A dying cache node takes no request with it: in-flight
            # cache calls complete, later ones miss cold.
            return []
        pool = self._pool_names.get(machine_name)
        if pool is not None \
                and any(m != machine_name and m not in self.down
                        for m in pool):
            return [proc for proc, route in self._routes.items()
                    if not proc.finished
                    and (route.web.name == machine_name
                         or route.gen.name == machine_name)]
        repl = self._replica_sets.get(machine_name)
        if repl is not None \
                and repl.primary.machine.name not in self.down:
            # A read replica with its primary alive: only the reads it
            # is serving right now die (they reroute).
            return [proc for proc, route in self._routes.items()
                    if not proc.finished
                    and route.db_busy_on == machine_name]
        return self.inflight_processes()

    # -- sync locks -----------------------------------------------------------

    def _sync_registry(self, route) -> Dict[str, RWLock]:
        if route is None or route is self:
            return self._sync_locks
        return self._sync_registries[route.gen.name]
