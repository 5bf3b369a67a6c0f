"""The simulated site: replays interaction profiles over machines.

One :class:`SimulatedSite` is a full deployment of one configuration:
machines on a switched LAN, the database's table-lock manager, the
container's sync-lock registry, and the per-component CPU cost tables.
The client population calls :meth:`perform` for each interaction; the
method is a simulator process that walks the profile's steps charging
CPU, wire time, and lock waits in virtual time.

The contention mechanics are real, not modeled:

* every statement takes MyISAM-style per-table locks (write-priority
  RW locks) for its execution time;
* an explicit ``LOCK TABLES`` span holds its locks across all the
  round trips inside the span -- this is what caps the non-sync
  bookstore configurations;
* sync spans hold named locks in the *container* instead, so database
  readers keep flowing -- the (sync) configurations' advantage.

The request path has three declared seams -- *front*, *generate*,
*db_query* -- that opt-in interposers (the cache tier, overload
degradation) wrap through :meth:`SimulatedSite.interpose`; database
tiers subclass the site and replace the statement terminal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.harness.profiles import AppProfile, InteractionVariant
from repro.machine.machine import Machine, MachineSpec
from repro.middleware.ejb.container import EjbCosts
from repro.middleware.ejb.session import RmiCosts
from repro.middleware.phpmod.module import PhpCosts
from repro.middleware.servlet.ajp import AjpCosts
from repro.middleware.servlet.engine import ServletCosts
from repro.db.driver import (
    EJB_JDBC_OVERHEADS,
    JDBC_OVERHEADS,
    NATIVE_OVERHEADS,
)
from repro.faults.errors import AdmissionReject, TierDown, TransientDbError
from repro.net.lan import Lan
from repro.sim.kernel import Process, Simulator
from repro.sim.resources import Resource, RWLock, acquire_lock, safe_acquire
from repro.topology.configs import Configuration
from repro.web.server import (
    SPAN_ACCEPT_QUEUE,
    SPAN_AJP_REPLY,
    SPAN_AJP_REQUEST,
    SPAN_HTTP,
    SPAN_REPLY,
    WebServerConfig,
)


@dataclass(frozen=True)
class SimCosts:
    """Replay-level constants and ablation switches."""

    request_bytes: int = 420          # client HTTP request incl. headers
    image_request_bytes: int = 240    # per embedded-image GET
    db_lock_statement_cpu: float = 0.18e-3
    client_nic_bandwidth: float = 10e9   # aggregate of many client boxes
    # Ablations (DESIGN.md section 5):
    # MyISAM gives waiting writers priority over new readers; set False
    # to evaluate FIFO/reader-friendly table locks.
    db_write_priority: bool = True
    # Container sync-lock granularity: "entity" (Java-style per-object)
    # or "table" (as coarse as the database's own locks).
    sync_lock_granularity: str = "entity"


class SimulatedSite:
    """A deployed configuration under simulation."""

    def __init__(self, sim: Simulator, config: Configuration,
                 profile: AppProfile,
                 ssl_interactions: frozenset = frozenset(),
                 costs: Optional[SimCosts] = None,
                 web_config: Optional[WebServerConfig] = None,
                 php_costs: Optional[PhpCosts] = None,
                 servlet_costs: Optional[ServletCosts] = None,
                 ejb_costs: Optional[EjbCosts] = None,
                 ajp_costs: Optional[AjpCosts] = None,
                 rmi_costs: Optional[RmiCosts] = None):
        if config.flavor != profile.flavor:
            raise ValueError(
                f"configuration {config.name} needs a {config.flavor!r} "
                f"profile, got {profile.flavor!r}")
        self.sim = sim
        self.config = config
        self.profile = profile
        self.costs = costs or SimCosts()
        self.web_config = web_config or WebServerConfig()
        self.php_costs = php_costs or PhpCosts()
        self.servlet_costs = servlet_costs or ServletCosts()
        self.ejb_costs = ejb_costs or EjbCosts()
        self.ajp_costs = ajp_costs or AjpCosts()
        self.rmi_costs = rmi_costs or RmiCosts()
        self.ssl_interactions = ssl_interactions

        self.lan = Lan(sim)
        self.machines: Dict[str, Machine] = {}
        for name in config.machine_names():
            machine = Machine(sim, name)
            self.machines[name] = machine
            self.lan.attach(machine)
        # The client side is an aggregate pseudo-machine with a fat NIC
        # (the paper uses "enough client machines" that clients are never
        # the bottleneck).
        self.client_machine = Machine(
            sim, "clients",
            MachineSpec(nic_bandwidth_bps=self.costs.client_nic_bandwidth))
        self.lan.attach(self.client_machine)

        self.web = self.machines[config.machine_of("web")]
        self.gen = self.machines[config.machine_of("gen")]
        self.db = self.machines[config.machine_of("db")]
        self.ejb = self.machines[config.machine_of("ejb")] \
            if "ejb" in config.placement else None

        # Apache's process pool (512 in the paper's configuration).
        self.web_processes = Resource(
            sim, capacity=self.web_config.max_processes, name="httpd")
        # MyISAM table locks, created on demand.
        self._table_locks: Dict[str, RWLock] = {}
        # Container sync locks (servlet_sync flavor), created on demand.
        self._sync_locks: Dict[str, RWLock] = {}
        # Interactions completed (all phases; the population windows it).
        self.interactions_done = 0
        # -- resilience state (repro.faults) --------------------------------
        # Machine names currently crashed; empty on the happy path, so
        # every check below is one falsy-set test.
        self.down: set = set()
        # Transient database-connection failure window active?
        self.db_conn_glitch = False
        # In-flight interaction processes (only tracked once a fault
        # injector attaches; the steady-state benchmark skips the dict).
        self._inflight: Dict[Process, str] = {}
        self._track_inflight = False
        # Requests shed by admission control / refused by a downed tier.
        self.rejections = 0
        # Accumulated virtual time spent *waiting* for locks (not
        # holding them): the direct measure of the contention the paper
        # attributes the bookstore results to.
        self.db_lock_wait_time = 0.0
        self.sync_lock_wait_time = 0.0

        if config.flavor == "php":
            self._driver = NATIVE_OVERHEADS
        elif config.flavor == "ejb":
            self._driver = EJB_JDBC_OVERHEADS
        else:
            self._driver = JDBC_OVERHEADS
        # The machine that issues database queries.
        self.db_client = self.ejb if config.flavor == "ejb" else self.gen

        # -- the three seams (DESIGN.md section 13) ---------------------------
        # Bound once, here, to the mechanisms; only interpose() rebinds
        # them.  A database tier (repro.cluster, repro.shard) overrides
        # the terminal _db_statement instead of wrapping the seam.
        self._front = self._perform
        self._generate = self._run_php if config.flavor == "php" \
            else self._run_container
        self._db_query = self._db_statement
        # The attached cache tier (repro.cache) or None; ``_fragments``
        # is the same object when its page fragments are looked up
        # *inside* the generator's process (php.script / servlet.engine).
        self.cache = None
        self._fragments = None
        # Routing/2PC counters of a sharded database tier (repro.shard).
        self.shard_stats = None

    def interpose(self, stage, *seams: str) -> None:
        """Wrap the named seams (``"front"``, ``"generate"``,
        ``"db_query"``) with ``stage``: the stage's generator method of
        that name becomes the seam and its ``next_<seam>`` attribute the
        previous binding, so the latest stage interposed is outermost."""
        for seam in seams:
            setattr(stage, "next_" + seam, getattr(self, "_" + seam))
            setattr(self, "_" + seam, getattr(stage, seam))

    # -- lock tables ---------------------------------------------------------------

    def table_lock(self, table: str) -> RWLock:
        lock = self._table_locks.get(table)
        if lock is None:
            lock = RWLock(self.sim,
                          write_priority=self.costs.db_write_priority,
                          name=f"db.{table}")
            self._table_locks[table] = lock
        return lock

    def sync_lock(self, name: str, route=None) -> RWLock:
        registry = self._sync_registry(route)
        lock = registry.get(name)
        if lock is None:
            lock = RWLock(self.sim, write_priority=True, name=f"sync.{name}")
            registry[name] = lock
        return lock

    def _sync_registry(self, route) -> Dict[str, RWLock]:
        """Registry holding the container sync locks for this route.
        One registry here; one per servlet-engine replica in a cluster."""
        return self._sync_locks

    # -- fault-injection surface (driven by repro.faults.FaultInjector) -------------

    def enable_fault_tracking(self) -> None:
        """Start registering in-flight interactions so crashes can abort
        them.  Idempotent; off by default to keep the happy path free."""
        self._track_inflight = True

    def mark_down(self, machine_name: str) -> None:
        """Crash one machine: new requests through it fail fast."""
        if machine_name not in self.machines:
            raise KeyError(f"configuration {self.config.name!r} has no "
                           f"machine {machine_name!r}")
        self.down.add(machine_name)

    def mark_up(self, machine_name: str) -> None:
        """Restart a crashed machine (no-op if it was up)."""
        self.down.discard(machine_name)

    def inflight_processes(self) -> list:
        """Processes currently inside :meth:`perform` (for aborting)."""
        return [proc for proc in self._inflight if not proc.finished]

    def crash_victims(self, machine_name: str) -> list:
        """Processes to interrupt when ``machine_name`` crashes.

        With one machine per tier every in-flight interaction dies with
        it; a clustered site narrows this to the requests actually
        routed through the crashed pool member so the survivors keep
        running on their replicas.
        """
        return self.inflight_processes()

    def begin_db_glitch(self) -> None:
        self.db_conn_glitch = True

    def end_db_glitch(self) -> None:
        self.db_conn_glitch = False

    def _check_up(self, machine) -> None:
        if machine.name in self.down:
            raise TierDown(machine.name)

    # -- client API ------------------------------------------------------------------

    def new_session(self, client_id: int, rng) -> None:
        """Session start: nothing to do (connections are pooled)."""

    def end_session(self, client_id: int) -> None:
        """Session end: nothing to keep per session here (a clustered
        site drops the session's balancer affinity bindings)."""

    def perform(self, client_id: int, name: str, rng):
        """Simulator process: execute one interaction end to end.

        Raises :class:`~repro.faults.errors.TierDown`,
        :class:`~repro.faults.errors.TransientDbError` or
        :class:`~repro.faults.errors.AdmissionReject` when fault injection
        or admission control fails the request; every lock and slot taken
        so far is released on the way out.
        """
        variant = self.profile.profile(name).pick(rng)
        proc = self.sim.current_process if self._track_inflight else None
        if proc is not None:
            self._inflight[proc] = name
        tracer = self.sim.tracer
        rc = tracer.begin_request(name, client_id) \
            if tracer is not None else None
        try:
            yield from self._dispatch(variant, name, client_id, rng)
        finally:
            if proc is not None:
                self._inflight.pop(proc, None)
            if rc is not None:
                # Closes every span still open (crash/interrupt paths
                # included) and folds the request into the aggregates.
                rc.close()
        self.interactions_done += 1

    # -- routing (repro.cluster overrides these hooks) -------------------------------

    def _route(self, name: str, client_id: int, rng):
        """Pick the machines serving this request (``name`` is the
        interaction).  The base site is its own (only) route:
        ``route.web`` / ``route.gen`` / ``route.db`` / ``route.ejb`` /
        ``route.db_client`` / ``route.web_processes`` resolve to the
        fixed tier attributes, and nothing is allocated per request."""
        return self

    def _end_route(self, route) -> None:
        """Release per-request routing state (balancer slots); no-op
        when the site is its own route."""

    def _dispatch(self, variant: InteractionVariant, name: str,
                  client_id: int, rng):
        route = self._route(name, client_id, rng)
        try:
            yield from self._front(variant, name, rng, route)
        finally:
            self._end_route(route)

    def _perform(self, variant: InteractionVariant, name: str, rng, route):
        costs = self.costs
        web_cfg = self.web_config
        lan = self.lan
        web = route.web
        web_processes = route.web_processes
        tracer = self.sim.tracer
        rc = tracer.current() if tracer is not None else None

        # A crashed front end refuses the TCP connection outright.
        if self.down:
            self._check_up(web)
        # Client request reaches the web server; an Apache process is
        # held for the duration of the dynamic request.
        yield from lan.transfer(self.client_machine, web, costs.request_bytes)
        # Admission control: with every process busy and the accept queue
        # at its bound, shed the request with a fast 503.
        limit = web_cfg.accept_queue_limit
        if limit is not None \
                and web_processes.in_use >= web_processes.capacity \
                and web_processes.queue_length >= limit:
            self.rejections += 1
            yield from web.cpu.execute(web_cfg.per_reject_cpu)
            yield from lan.transfer(web, self.client_machine,
                                    web_cfg.reject_response_bytes)
            raise AdmissionReject(f"accept queue full "
                                  f"({web_processes.queue_length}"
                                  f" >= {limit})")
        yield from safe_acquire(web_processes, rc, SPAN_ACCEPT_QUEUE,
                                "queue", "web")
        try:
            span = rc.push(SPAN_HTTP, "phase", "web") \
                if rc is not None else None
            try:
                web_cpu = (web_cfg.per_request_cpu +
                           costs.request_bytes * web_cfg.per_net_byte_cpu)
                if name in self.ssl_interactions:
                    web_cpu += web_cfg.per_ssl_request_cpu
                yield from web.cpu.execute(web_cpu)

                yield from self._generate(variant, rng, route, rc)
            finally:
                if span is not None:
                    rc.pop(span)

            # Reply to the client plus the embedded images it fetches.
            span = rc.push(SPAN_REPLY, "phase", "web") \
                if rc is not None else None
            try:
                reply_cpu = (variant.response_bytes + variant.image_bytes) * \
                    web_cfg.per_net_byte_cpu + \
                    variant.image_count * web_cfg.per_static_hit_cpu
                yield from web.cpu.execute(reply_cpu)
                yield from lan.transfer(web, self.client_machine,
                                        variant.response_bytes)
                if variant.image_count:
                    yield from lan.transfer(
                        self.client_machine, web,
                        variant.image_count * costs.image_request_bytes)
                    yield from lan.transfer(web, self.client_machine,
                                            variant.image_bytes)
            finally:
                if span is not None:
                    rc.pop(span)
        finally:
            web_processes.release()

    # -- generator execution ------------------------------------------------------------

    def _run_php(self, variant: InteractionVariant, rng, route, rc=None):
        """PHP module: everything happens in the web server process.
        (A fragment hit leaves only the per-request work.)"""
        php = self.php_costs
        web = route.web
        fragments = self._fragments
        plan = fragments.page_plan(variant, route) \
            if fragments is not None else None
        span = rc.push("php.script", "phase", "web") \
            if rc is not None else None
        try:
            entry = None
            if plan is not None:
                entry = yield from fragments.get(web, "page", plan[0], rc)
            if entry is not None:
                yield from web.cpu.execute(php.per_request)
                fragments.absorbed_page(variant)
            else:
                yield from web.cpu.execute(
                    php.per_request +
                    variant.response_bytes * php.per_output_byte +
                    variant.query_count * php.per_query_call)
                yield from self._replay_steps(variant, rng, route, rc)
                if plan is not None:
                    yield from fragments.put(
                        web, "page", plan[0], variant.response_bytes,
                        fragments.dep_tags(route, plan[1]), rc)
        finally:
            if span is not None:
                rc.pop(span)

    def _run_container(self, variant: InteractionVariant, rng, route,
                       rc=None):
        """Servlet (and EJB) flavors: AJP crossing, container work.
        (A fragment hit leaves the crossing and the per-request work.)"""
        ajp = self.ajp_costs
        web = route.web
        gen = route.gen
        fragments = self._fragments
        plan = fragments.page_plan(variant, route) \
            if fragments is not None else None
        if self.down:
            # The AJP connector to a crashed container fails fast.
            self._check_up(gen)
        request_ipc = ajp.request_overhead_bytes + 80
        reply_ipc = ajp.reply_overhead_bytes + variant.response_bytes
        yield from self._ajp_request(web, gen, request_ipc, rc)

        span = rc.push("servlet.engine", "phase", gen.name) \
            if rc is not None else None
        try:
            servlet = self.servlet_costs
            entry = None
            if plan is not None:
                entry = yield from fragments.get(gen, "page", plan[0], rc)
            if entry is not None:
                yield from gen.cpu.execute(servlet.per_request)
                fragments.absorbed_page(variant)
            else:
                yield from gen.cpu.execute(
                    servlet.per_request +
                    variant.response_bytes * servlet.per_output_byte)
                if self.config.flavor != "ejb":
                    yield from gen.cpu.execute(
                        variant.query_count * servlet.per_query_call)
                yield from self._replay_steps(variant, rng, route, rc)
                if plan is not None:
                    yield from fragments.put(
                        gen, "page", plan[0], variant.response_bytes,
                        fragments.dep_tags(route, plan[1]), rc)
        finally:
            if span is not None:
                rc.pop(span)

        yield from self._ajp_reply(web, gen, reply_ipc, rc)

    def _ajp_request(self, web, gen, request_ipc: int, rc=None):
        """AJP request crossing: web -> container."""
        ajp = self.ajp_costs
        span = rc.push(SPAN_AJP_REQUEST, "ipc", gen.name) \
            if rc is not None else None
        try:
            yield from web.cpu.execute(
                ajp.per_message + request_ipc * ajp.per_byte)
            yield from self.lan.transfer(web, gen, request_ipc)
            yield from gen.cpu.execute(
                ajp.per_message + request_ipc * ajp.per_byte)
        finally:
            if span is not None:
                rc.pop(span)

    def _ajp_reply(self, web, gen, reply_ipc: int, rc=None):
        """AJP reply crossing: container -> web."""
        ajp = self.ajp_costs
        span = rc.push(SPAN_AJP_REPLY, "ipc", gen.name) \
            if rc is not None else None
        try:
            yield from gen.cpu.execute(
                ajp.per_message + reply_ipc * ajp.per_byte)
            yield from self.lan.transfer(gen, web, reply_ipc)
            yield from web.cpu.execute(
                ajp.per_message + reply_ipc * ajp.per_byte)
        finally:
            if span is not None:
                rc.pop(span)

    # -- step replay ---------------------------------------------------------------------

    def _replay_steps(self, variant: InteractionVariant, rng, route,
                      rc=None):
        held_explicit: Dict[str, str] = {}
        held_sync: list = []
        key_draws: Dict[int, int] = {}
        # Code-site labels only feed spans: untraced, every label is "".
        labels = variant.step_labels if rc is not None else ()
        nlabels = len(labels)
        try:
            for i, step in enumerate(variant.steps):
                label = labels[i] if i < nlabels else ""
                kind = step[0]
                if kind == "query":
                    yield from self._db_query(step, held_explicit, route,
                                              rc, label)
                elif kind == "lock":
                    yield from self._db_explicit_lock(
                        step[1], held_explicit, route, rc, label)
                elif kind == "unlock":
                    yield from self._db_unlock_step(held_explicit, route, rc)
                elif kind == "sync_acquire":
                    yield from self._sync_acquire(step[1], held_sync, rng,
                                                  key_draws, route, rc,
                                                  label)
                elif kind == "sync_release":
                    self._sync_release(step[1], held_sync, route)
                elif kind == "rmi":
                    yield from self._rmi_crossing(step[1], step[2], route,
                                                  rc, label)
                elif kind == "ejb_work":
                    yield from self._ejb_work(step[1], step[2], step[3],
                                              route, rc, label)
        finally:
            # Defensive cleanup: a variant always closes its spans, but
            # never leave locks dangling if one did not.
            if held_explicit:
                self._db_explicit_unlock(held_explicit)
            if held_sync:
                self._sync_release([name for name, __, __ in held_sync],
                                   held_sync, route)

    def _db_statement(self, step, held_explicit, route, rc=None, label=""):
        """Terminal of the *db_query* seam: route one statement to the
        database machine(s) that execute it.  One database here; the
        clustered site splits reads off to replicas, the sharded site
        routes by partition key."""
        yield from self._db_access(step, held_explicit, route, route.db,
                                   rc, label)

    def _db_access(self, step, held_explicit, route, db, rc=None, label=""):
        __, db_cpu, request_bytes, reply_bytes, reads, writes, count = step
        issuer = route.db_client
        driver = self._driver
        if self.down:
            self._check_up(db)
        if self.db_conn_glitch:
            # Transient: getting a connection fails, the DB box is fine.
            yield from issuer.cpu.execute(driver.per_call)
            raise TransientDbError("database connection refused")
        span = rc.push("db.query", "db", db.name,
                       meta={"origin": label, "count": count}) \
            if rc is not None else None
        try:
            # Client-side driver work (count > 1 for coalesced batches).
            yield from issuer.cpu.execute(
                count * driver.per_call +
                reply_bytes * driver.per_result_byte)
            yield from self.lan.transfer(issuer, db, request_bytes)
            # Per-statement MyISAM locks (skipped inside LOCK TABLES).
            taken = []
            try:
                if not held_explicit:
                    write_set = sorted(set(writes))
                    read_set = sorted(set(reads) - set(writes))
                    for table in sorted(set(write_set) | set(read_set)):
                        lock = self._instance_table_lock(db, table)
                        mode = "WRITE" if table in write_set else "READ"
                        waited_from = self.sim.now
                        yield from acquire_lock(lock, mode, rc, "db", label)
                        taken.append((lock, mode))
                        self.db_lock_wait_time += self.sim.now - waited_from
                yield from db.cpu.execute(db_cpu)
            finally:
                for lock, mode in taken:
                    lock.release(mode)
            if writes:
                self._note_commit(route, writes, db_cpu, db)
            yield from self.lan.transfer(db, issuer, reply_bytes)
        finally:
            if span is not None:
                rc.pop(span)

    def _instance_table_lock(self, db, table: str) -> RWLock:
        """Table-lock registry of the database machine ``db``; one
        registry here, one per database instance in a cluster."""
        return self.table_lock(table)

    def _note_commit(self, route, writes, db_cpu: float, db) -> None:
        """A write statement committed on database machine ``db``; the
        replicated DB ships it to the replicas and tells the cache
        tier.  Nothing to do with a single database."""

    def _db_explicit_lock(self, lock_set, held_explicit, route,
                          rc=None, label=""):
        """LOCK TABLES: take every lock (sorted order prevents deadlock),
        hold until UNLOCK TABLES.  ``held_explicit`` maps each table to
        ``(mode, lock)`` so release never needs a registry lookup (a
        sharded site holds locks on several instances at once)."""
        if self.down:
            self._check_up(route.db)
        if held_explicit:           # MySQL implicitly releases first
            self._db_explicit_unlock(held_explicit)
        for table, mode in sorted(lock_set):
            lock = self.table_lock(table)
            waited_from = self.sim.now
            yield from acquire_lock(lock, mode, rc, "db", label)
            self.db_lock_wait_time += self.sim.now - waited_from
            held_explicit[table] = (mode, lock)
        yield from route.db.cpu.execute(self.costs.db_lock_statement_cpu)

    def _db_explicit_unlock(self, held_explicit):
        for mode, lock in list(held_explicit.values()):
            lock.release(mode)
        held_explicit.clear()

    def _db_unlock_step(self, held_explicit, route, rc=None):
        """UNLOCK TABLES: release the span's locks, charge the statement.
        The sharded site interposes its two-phase commit here -- the
        decision happens *before* any lock is released."""
        self._db_explicit_unlock(held_explicit)
        yield from route.db.cpu.execute(self.costs.db_lock_statement_cpu)

    def _sync_acquire(self, lock_set, held_sync, rng, key_draws, route,
                      rc=None, label=""):
        """Take container locks; placeholder slots get fresh entity keys
        drawn from the table's key space (consistent within one
        interaction, independent across interactions)."""
        gen = route.gen
        resolved = []
        table_granularity = self.costs.sync_lock_granularity == "table"
        for table, slot, mode in lock_set:
            if slot is None or table_granularity:
                resolved.append((table, mode))
            else:
                draw = key_draws.get(slot)
                if draw is None:
                    space = self.profile.key_spaces.get(table, 1_000_000)
                    draw = rng.randrange(max(1, space))
                    key_draws[slot] = draw
                resolved.append((f"{table}#{draw}", mode))
        # Coarsening can map two entries onto one name; keep WRITE.
        merged: Dict[str, str] = {}
        for name, mode in resolved:
            if merged.get(name) != "WRITE":
                merged[name] = mode
        resolved = list(merged.items())
        for name, mode in sorted(resolved):
            yield from gen.cpu.execute(self.servlet_costs.per_sync_lock)
            lock = self.sync_lock(name, route)
            waited_from = self.sim.now
            yield from acquire_lock(lock, mode, rc, gen.name, label)
            self.sync_lock_wait_time += self.sim.now - waited_from
            held_sync.append((name, mode, lock))

    def _sync_release(self, names, held_sync, route):
        registry = self._sync_registry(route)
        for name, mode, lock in list(held_sync):
            lock.release(mode)
            # Keyed entity locks are transient: drop idle ones so the
            # registry does not accumulate one lock per random key.
            if "#" in name and not lock.writer and not lock.readers \
                    and not lock.waiting_writers and not lock.waiting_readers:
                registry.pop(name, None)
        held_sync.clear()

    def _rmi_crossing(self, request_bytes, reply_bytes, route,
                      rc=None, label=""):
        """Servlet <-> EJB server round trip for one façade call."""
        rmi = self.rmi_costs
        servlet = route.gen
        ejb = route.ejb
        if self.down:
            self._check_up(ejb)
        span = rc.push("rmi", "rmi", ejb.name,
                       meta={"origin": label} if label else None) \
            if rc is not None else None
        try:
            yield from servlet.cpu.execute(
                rmi.per_call + request_bytes * rmi.per_byte)
            yield from self.lan.transfer(servlet, ejb, request_bytes)
            yield from ejb.cpu.execute(
                rmi.per_call + request_bytes * rmi.per_byte)
            # (the queries of the call replay as their own steps)
            yield from ejb.cpu.execute(
                rmi.per_call + reply_bytes * rmi.per_byte)
            yield from self.lan.transfer(ejb, servlet, reply_bytes)
            yield from servlet.cpu.execute(
                rmi.per_call + reply_bytes * rmi.per_byte)
        finally:
            if span is not None:
                rc.pop(span)

    def _ejb_work(self, loads, stores, fields, route, rc=None, label=""):
        k = self.ejb_costs
        ejb = route.ejb
        cpu = (k.per_method + loads * k.per_entity_load +
               stores * k.per_entity_store + fields * k.per_field_access)
        span = rc.push("ejb.work", "ejb", ejb.name,
                       meta={"origin": label} if label else None) \
            if rc is not None else None
        try:
            yield from ejb.cpu.execute(cpu)
        finally:
            if span is not None:
                rc.pop(span)

    # -- reporting helpers ------------------------------------------------------------------

    def role_machines(self) -> Dict[str, Machine]:
        """Distinct machines keyed by their primary role name."""
        out: Dict[str, Machine] = {"web": self.web, "db": self.db}
        if self.gen is not self.web:
            out["servlet"] = self.gen
        if self.ejb is not None:
            out["ejb"] = self.ejb
        return out
