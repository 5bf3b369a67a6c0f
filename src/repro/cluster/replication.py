"""Primary/replica database tier: read/write splitting + log shipping.

One write primary, N read-only replicas.  Writes always execute on the
primary (its table locks are the site's own registry, so the trivial
cluster is byte-identical to the paper configuration).  Each committed
write statement is appended to every replica's ship log with an
``apply_at`` timestamp ``commit + replication_lag``; a per-replica
applier process drains the log in order, takes the replica's *own*
table write locks, and replays the statement at
``apply_cost_factor`` of the primary CPU cost.  Replication is
therefore asynchronous, ordered, and contends with the replica's
readers exactly like MyISAM write-priority locking on the primary.

Read-your-writes consistency is enforced at routing time: a session
remembers the commit sequence number of its last write, and
:meth:`ReplicatedDb.route_read` only offers replicas that have applied
at least that sequence -- falling back to the primary when every
replica lags (counted in ``lag_fallbacks``, surfaced as a zero-duration
trace span so `--trace` attributes the wait).

With zero replicas every method degenerates to pure integer
bookkeeping: no processes, no events, no RNG -- the identity guarantee.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.balancer import LoadBalancer
from repro.sim.kernel import Event
from repro.sim.resources import RWLock, Store, acquire_lock


class SessionState:
    """Per-client session bookkeeping for consistency and affinity."""

    __slots__ = ("client_id", "last_write_seq")

    def __init__(self, client_id: int):
        self.client_id = client_id
        self.last_write_seq = 0

    def reset(self) -> None:
        """New session: no writes observed yet."""
        self.last_write_seq = 0


class DbInstance:
    """One database machine: the primary or one read replica.

    The primary *shares* the site's table-lock registry (``table_locks``
    is the same dict object), so single-database behavior is untouched;
    replicas get private registries because their lock traffic is
    physically separate.
    """

    __slots__ = ("sim", "machine", "write_priority", "table_locks",
                 "is_primary", "applied_seq", "applied_writes",
                 "reads_served", "log", "rejoin_event")

    def __init__(self, sim, machine, write_priority: bool,
                 table_locks: Optional[Dict[str, RWLock]] = None,
                 is_primary: bool = False):
        self.sim = sim
        self.machine = machine
        self.write_priority = write_priority
        self.table_locks = {} if table_locks is None else table_locks
        self.is_primary = is_primary
        self.applied_seq = 0          # last write sequence applied here
        self.applied_writes = 0
        self.reads_served = 0
        self.log: Optional[Store] = None    # set for replicas
        self.rejoin_event = None      # armed while crashed (applier waits)

    def table_lock(self, table: str) -> RWLock:
        lock = self.table_locks.get(table)
        if lock is None:
            lock = RWLock(self.sim, write_priority=self.write_priority,
                          name=f"{self.machine.name}.{table}")
            self.table_locks[table] = lock
        return lock


class ReplicatedDb:
    """The database tier as the cluster sees it."""

    def __init__(self, sim, site, primary: DbInstance,
                 replicas: List[DbInstance], replication_lag: float,
                 apply_cost_factor: float, balancer: LoadBalancer):
        self.sim = sim
        self.site = site
        self.primary = primary
        self.replicas = tuple(replicas)
        self.replication_lag = replication_lag
        self.apply_cost_factor = apply_cost_factor
        self.balancer = balancer              # read balancer over replicas
        self.commit_seq = 0
        self.lag_fallbacks = 0       # reads sent to the primary for RYW
        self.down_fallbacks = 0      # reads sent to the primary: all down
        self._by_name = {r.machine.name: r for r in self.replicas}
        for replica in self.replicas:
            replica.log = Store(sim, name=f"shiplog.{replica.machine.name}")
            sim.spawn(self._applier(replica),
                      name=f"db.applier.{replica.machine.name}")

    # -- write path -----------------------------------------------------------

    def commit_write(self, session: Optional[SessionState], writes,
                     db_cpu: float) -> int:
        """A write statement committed on the primary: bump the global
        sequence, remember it for the session's read-your-writes, and
        ship it to every replica."""
        self.commit_seq += 1
        seq = self.commit_seq
        self.primary.applied_seq = seq
        if session is not None:
            session.last_write_seq = seq
        if self.replicas:
            apply_at = self.sim.now + self.replication_lag
            entry = (seq, tuple(sorted(set(writes))),
                     db_cpu * self.apply_cost_factor, apply_at)
            for replica in self.replicas:
                replica.log.put(entry)
        return seq

    def _applier(self, replica: DbInstance):
        """Drain one replica's ship log in commit order."""
        sim = self.sim
        down = self.site.down
        while True:
            seq, tables, apply_cpu, apply_at = yield replica.log.get()
            if apply_at > sim.now:
                yield apply_at - sim.now
            # A crashed replica stops applying; the log keeps queueing,
            # so after mark_up it catches up in order (and readers stay
            # away until applied_seq passes their session's watermark).
            while replica.machine.name in down:
                if replica.rejoin_event is None \
                        or replica.rejoin_event.triggered:
                    replica.rejoin_event = Event(sim)
                yield replica.rejoin_event
            taken = []
            try:
                for table in tables:
                    lock = replica.table_lock(table)
                    yield from acquire_lock(lock, "WRITE")
                    taken.append(lock)
                if apply_cpu > 0.0:
                    yield from replica.machine.cpu.execute(apply_cpu)
            finally:
                for lock in taken:
                    lock.release_write()
            replica.applied_seq = seq
            replica.applied_writes += 1

    def notify_up(self, machine_name: str) -> None:
        """A crashed replica restarted: resume its applier."""
        replica = self._by_name.get(machine_name)
        if replica is not None and replica.rejoin_event is not None \
                and not replica.rejoin_event.triggered:
            replica.rejoin_event.trigger(None)

    # -- read path ------------------------------------------------------------

    def route_read(self, session: Optional[SessionState],
                   rc=None) -> Tuple[DbInstance, Optional[str]]:
        """Choose the database instance for a read statement.

        Returns ``(instance, token)``; a non-None token must be passed
        to :meth:`release_read` when the statement finishes.  Falls back
        to the primary when no replica is both up and caught up to the
        session's last write (read-your-writes).
        """
        if not self.replicas:
            return self.primary, None
        down = self.site.down
        need = session.last_write_seq if session is not None else 0
        eligible = {r.machine.name for r in self.replicas
                    if r.machine.name not in down and r.applied_seq >= need}
        if not eligible:
            any_up = any(r.machine.name not in down for r in self.replicas)
            if any_up:
                self.lag_fallbacks += 1
            else:
                self.down_fallbacks += 1
            if rc is not None:
                span = rc.push("db.route", "lb", "db",
                               meta={"backend": "db",
                                     "fallback": "lag" if any_up
                                     else "down"})
                rc.pop(span)
            return self.primary, None
        key = session.client_id if session is not None else None
        token = self.balancer.acquire(session_key=key, eligible=eligible)
        if rc is not None:
            span = rc.push("db.route", "lb", "db",
                           meta={"backend": token,
                                 "policy": self.balancer.policy})
            rc.pop(span)
        instance = self._by_name[token]
        instance.reads_served += 1
        return instance, token

    def release_read(self, token: str) -> None:
        self.balancer.release(token)
