"""Graceful degradation: per-tier backpressure, a DB circuit breaker,
and priority load shedding with degraded responses.

The mechanisms (motivated by the three-tier separation argument of
arXiv:1405.1618 -- keep one saturated tier from collapsing the others):

* **Bounded tier queues.**  The servlet/EJB container and the database
  driver each get an admission gate (a :class:`~repro.sim.resources.
  Resource` of ``concurrency`` slots with a bounded waiting line).  A
  request arriving when every slot is busy *and* the backlog is at its
  bound is turned away with a fast busy page and
  :class:`~repro.faults.errors.BackpressureError` -- which subclasses
  ``AdmissionReject``, so the client machinery already accounts it as a
  rejection and backs off.

* **Circuit breaker on the database driver.**  Outcomes of the last
  ``window`` DB calls are kept in a ring; when the failure fraction
  crosses ``trip_threshold`` the breaker opens and calls fail fast with
  :class:`~repro.faults.errors.CircuitOpenError` (a transient DB error
  to the caller).  After ``reset_timeout`` the next calls are let
  through as half-open probes; a probe success closes the breaker, a
  probe failure re-opens it.  All transitions happen on access -- the
  breaker schedules no simulator events and draws no RNG.

* **Priority load shedding.**  When the front end is under pressure
  (accept backlog past ``shed_queue_threshold``, or the breaker is
  open), browse-class interactions are served a small degraded/static
  page straight from the web tier -- no container, no database -- while
  order-class interactions keep their full path.  The degraded reply is
  a *successful* (if lesser) interaction: it counts toward goodput and
  is tallied separately.

Installation (:func:`install_degradation`) interposes one
:class:`DegradationState` on the site's three seams -- shedding on
*front*, the container gate on *generate*, breaker and driver gate on
*db_query* (DESIGN.md "How a site is composed") -- so a site without a
policy runs byte-for-byte the bare mechanisms: zero extra frames, zero
RNG, zero events.  Installed last, the guard is outermost: an open
breaker fails a read before any cache lookup, and a full container gate
answers busy before any fragment lookup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.faults.errors import (
    BackpressureError,
    CircuitOpenError,
    TierDown,
    TransientDbError,
)
from repro.sim.resources import Resource, safe_acquire
from repro.web.server import SPAN_DEGRADED

# TPC-W's browse class: the read-only storefront pages a degraded cache
# can serve.  Order-class interactions (cart, buy, admin) are never
# degraded -- they carry the revenue.
DEFAULT_BROWSE_CLASS = frozenset({
    "home", "new_products", "best_sellers", "product_detail",
    "search_request", "search_results",
})


@dataclass(frozen=True)
class BreakerPolicy:
    """Circuit-breaker tuning for the database driver."""

    window: int = 20              # outcomes kept in the sliding ring
    min_calls: int = 10           # don't trip on a tiny sample
    trip_threshold: float = 0.5   # failure fraction that opens the breaker
    reset_timeout: float = 5.0    # seconds open before probing
    half_open_probes: int = 2     # concurrent probes allowed half-open

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, "
                             f"got {self.min_calls}")
        if not 0 < self.trip_threshold <= 1:
            raise ValueError(f"trip_threshold must be in (0, 1], "
                             f"got {self.trip_threshold}")
        if self.reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be positive, "
                             f"got {self.reset_timeout}")
        if self.half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1, "
                             f"got {self.half_open_probes}")


@dataclass(frozen=True)
class DegradationPolicy:
    """What the graceful-degradation layer bounds and sheds."""

    # Container (servlet/EJB) gate: concurrent requests in the tier,
    # plus how many may wait.  None disables the gate.
    container_concurrency: Optional[int] = 64
    container_backlog: int = 64
    # Database gate: concurrent driver calls plus bounded backlog.
    db_concurrency: Optional[int] = 96
    db_backlog: int = 128
    # Circuit breaker on the DB driver.  None disables it.
    breaker: Optional[BreakerPolicy] = field(default_factory=BreakerPolicy)
    # Priority shedding: serve these interactions a degraded page when
    # the accept backlog reaches the threshold (or the breaker is open).
    degradable: frozenset = DEFAULT_BROWSE_CLASS
    shed_queue_threshold: Optional[int] = 32

    def __post_init__(self):
        if self.container_concurrency is not None \
                and self.container_concurrency < 1:
            raise ValueError(f"container_concurrency must be >= 1 (or "
                             f"None), got {self.container_concurrency}")
        if self.container_backlog < 0:
            raise ValueError(f"container_backlog must be >= 0, "
                             f"got {self.container_backlog}")
        if self.db_concurrency is not None and self.db_concurrency < 1:
            raise ValueError(f"db_concurrency must be >= 1 (or None), "
                             f"got {self.db_concurrency}")
        if self.db_backlog < 0:
            raise ValueError(f"db_backlog must be >= 0, "
                             f"got {self.db_backlog}")
        if self.shed_queue_threshold is not None \
                and self.shed_queue_threshold < 1:
            raise ValueError(f"shed_queue_threshold must be >= 1 (or "
                             f"None), got {self.shed_queue_threshold}")


class CircuitBreaker:
    """Count-based sliding-window breaker; clock-driven, event-free."""

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, sim, policy: BreakerPolicy):
        self.sim = sim
        self.policy = policy
        self.state = self.CLOSED
        self._outcomes: deque = deque(maxlen=policy.window)
        self._opened_at = 0.0
        self._probes_in_flight = 0
        # Counters for reports.
        self.trips = 0
        self.fast_fails = 0

    @property
    def is_open(self) -> bool:
        """Open *right now* (does not consume a probe slot)."""
        self._maybe_half_open()
        return self.state == self.OPEN

    def _maybe_half_open(self) -> None:
        if self.state == self.OPEN and \
                self.sim.now >= self._opened_at + self.policy.reset_timeout:
            self.state = self.HALF_OPEN
            self._probes_in_flight = 0

    def allow(self) -> bool:
        """May this call proceed?  Half-open calls consume probe slots;
        balance each True with record_success/record_failure."""
        self._maybe_half_open()
        if self.state == self.CLOSED:
            return True
        if self.state == self.HALF_OPEN:
            if self._probes_in_flight < self.policy.half_open_probes:
                self._probes_in_flight += 1
                return True
            self.fast_fails += 1
            return False
        self.fast_fails += 1
        return False

    def record_success(self) -> None:
        if self.state == self.HALF_OPEN:
            # The database answered: close and start a fresh window.
            self.state = self.CLOSED
            self._outcomes.clear()
            self._probes_in_flight = 0
            return
        if self.state == self.CLOSED:
            self._outcomes.append(True)

    def record_failure(self) -> None:
        if self.state == self.HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            self._trip()
            return
        if self.state == self.CLOSED:
            self._outcomes.append(False)
            p = self.policy
            if len(self._outcomes) >= p.min_calls:
                failures = sum(1 for ok in self._outcomes if not ok)
                if failures / len(self._outcomes) >= p.trip_threshold:
                    self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self._opened_at = self.sim.now
        self._outcomes.clear()
        self.trips += 1


@dataclass
class BreakerTally:
    trips: int
    fast_fails: int


@dataclass
class DegradationTally:
    """What a point carries of the layer (``point.degradation``): the
    tallies of :class:`DegradationState` under the same attribute
    names, detached from the site so the point can cross the pool."""

    degraded_served: int
    backpressure_rejects: Dict[str, int]
    breaker: Optional[BreakerTally]      # None: the policy has no breaker


class DegradationState:
    """Gates, breaker, and tallies attached to one site, and the three
    generator methods that interpose them on its seams."""

    def __init__(self, site, policy: DegradationPolicy):
        sim = site.sim
        self.site = site
        self.policy = policy
        self.container_gate = (
            Resource(sim, capacity=policy.container_concurrency,
                     name="overload.container")
            if policy.container_concurrency is not None else None)
        self.db_gate = (
            Resource(sim, capacity=policy.db_concurrency,
                     name="overload.db")
            if policy.db_concurrency is not None else None)
        self.breaker = CircuitBreaker(sim, policy.breaker) \
            if policy.breaker is not None else None
        self.degraded_served = 0
        self.backpressure_rejects: Dict[str, int] = {"servlet": 0, "db": 0}
        # CPU of the busy page a full container gate answers with, paid
        # by whoever turns the request away: PHP runs inside the web
        # process (the gate bounds concurrent scripts exactly like the
        # servlet tier), the other flavors reject in their container.
        flavor = site.config.flavor
        if flavor == "php":
            self._busy_page_cpu = site.web_config.per_reject_cpu
        elif flavor == "ejb":
            self._busy_page_cpu = site.ejb_costs.per_busy_reject
        else:
            self._busy_page_cpu = site.servlet_costs.per_busy_reject

    def tally(self) -> DegradationTally:
        breaker = self.breaker
        return DegradationTally(
            self.degraded_served, dict(self.backpressure_rejects),
            BreakerTally(breaker.trips, breaker.fast_fails)
            if breaker is not None else None)

    def shedding(self, route) -> bool:
        """Is the site under enough pressure to degrade browses?

        Three deterministic signals, no RNG: the web accept backlog past
        its threshold, the container gate saturated with half its
        backlog waiting (degrade browses *before* order-class requests
        start bouncing off the full backlog), or the DB breaker open
        (serve cached pages while the database recovers)."""
        threshold = self.policy.shed_queue_threshold
        if threshold is not None \
                and route.web_processes.queue_length >= threshold:
            return True
        gate = self.container_gate
        if gate is not None and gate.in_use >= gate.capacity \
                and gate.queue_length >= max(
                    1, self.policy.container_backlog // 2):
            return True
        return self.breaker is not None and self.breaker.is_open

    # -- front: priority shedding -----------------------------------------------

    def front(self, variant, name, rng, route):
        if name not in self.policy.degradable or not self.shedding(route):
            yield from self.next_front(variant, name, rng, route)
            return
        # Serve the static fallback from the web tier alone.
        site = self.site
        web = route.web
        cfg = site.web_config
        if site.down:
            site._check_up(web)
        yield from site.lan.transfer(site.client_machine, web,
                                     site.costs.request_bytes)
        tracer = site.sim.tracer
        rc = tracer.current() if tracer is not None else None
        span = rc.push(SPAN_DEGRADED, "phase", "web",
                       meta={"origin": name}) if rc is not None else None
        try:
            cpu = cfg.per_degraded_cpu + \
                cfg.degraded_response_bytes * cfg.per_net_byte_cpu
            if site.config.flavor == "php":
                cpu += site.php_costs.per_degraded_script
            yield from web.cpu.execute(cpu)
            yield from site.lan.transfer(web, site.client_machine,
                                         cfg.degraded_response_bytes)
            self.degraded_served += 1
        finally:
            if span is not None:
                rc.pop(span)

    # -- generate: the container gate ----------------------------------------------

    def generate(self, variant, rng, route, rc=None):
        gate = self.container_gate
        if _gate_full(gate, self.policy.container_backlog):
            # Fast busy page: charge the rejecting tier, answer the
            # client through the web machine, raise backpressure.
            site = self.site
            cfg = site.web_config
            self.backpressure_rejects["servlet"] += 1
            yield from route.web.cpu.execute(
                self._busy_page_cpu
                + cfg.reject_response_bytes * cfg.per_net_byte_cpu)
            yield from site.lan.transfer(route.web, site.client_machine,
                                         cfg.reject_response_bytes)
            raise BackpressureError("servlet")
        yield from safe_acquire(gate)
        try:
            yield from self.next_generate(variant, rng, route, rc)
        finally:
            gate.release()

    # -- db_query: circuit breaker + driver gate -------------------------------------

    def db_query(self, step, held_explicit, route, rc=None, label=""):
        site = self.site
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            # Fail fast at the driver: one call's worth of client CPU.
            yield from route.db_client.cpu.execute(site._driver.per_call)
            raise CircuitOpenError("database circuit open")
        gate = self.db_gate
        if gate is not None and _gate_full(gate, self.policy.db_backlog):
            self.backpressure_rejects["db"] += 1
            yield from route.db_client.cpu.execute(site._driver.per_call)
            raise BackpressureError("db")
        if gate is not None:
            yield from safe_acquire(gate)
        try:
            yield from self.next_db_query(step, held_explicit, route,
                                          rc, label)
        except (TierDown, TransientDbError):
            if breaker is not None:
                breaker.record_failure()
            raise
        except BaseException:
            # Interrupts (deadline expiry mid-query) and anything else:
            # give the probe slot back without biasing the window.
            if breaker is not None and breaker.state == breaker.HALF_OPEN:
                breaker._probes_in_flight = max(
                    0, breaker._probes_in_flight - 1)
            raise
        else:
            if breaker is not None:
                breaker.record_success()
        finally:
            if gate is not None:
                gate.release()


def _gate_full(gate: Resource, backlog: int) -> bool:
    return gate.in_use >= gate.capacity and gate.queue_length >= backlog


def install_degradation(site, policy: DegradationPolicy) -> DegradationState:
    """Interpose the degradation layer on ``site`` (a
    :class:`~repro.topology.simulation.SimulatedSite` or subclass);
    returns the state object (also exposed as ``site.degradation``).
    A lever the policy disables is not interposed at all."""
    state = DegradationState(site, policy)
    site.degradation = state
    site.interpose(state, "front")
    if state.container_gate is not None:
        site.interpose(state, "generate")
    if state.breaker is not None or state.db_gate is not None:
        site.interpose(state, "db_query")
    return state
