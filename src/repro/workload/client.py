"""The client-browser emulator.

Per the paper (and TPC-W clauses 5.3.1.1 / 6.2.1.2):

* a fixed number of emulated clients run concurrent sessions;
* think time between interactions is negative-exponential, mean 7 s;
* session duration is negative-exponential, mean 15 min -- when a
  session ends a new one begins immediately (the client count is the
  controlled variable);
* the next interaction is drawn from the workload mix's transition
  probabilities.

Each client is one simulator process; the site under test is any object
with a ``perform(client_id, interaction_name, sim_process_context)``
generator method (the topology layer provides it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.faults.errors import AdmissionReject, RequestError, TierDown
from repro.metrics.slo import percentile
from repro.sim.kernel import Interrupt, Simulator
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ThinkTimeSpec:
    """Think/session time parameters (seconds)."""

    think_mean: float = 7.0
    session_mean: float = 900.0

    def __post_init__(self):
        if self.think_mean <= 0:
            raise ValueError(f"think_mean must be positive, "
                             f"got {self.think_mean}")
        if self.session_mean <= 0:
            raise ValueError(f"session_mean must be positive, "
                             f"got {self.session_mean}")


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side robustness: per-attempt deadlines, jittered
    exponential backoff, and a bounded per-session retry budget.

    When a population has no policy (the default), interactions run on
    the exact legacy code path -- no extra processes, no extra RNG draws
    -- so steady-state results are untouched.
    """

    # Abort an attempt that has not answered within this many seconds
    # (None disables the watchdog).
    deadline: Optional[float] = 8.0
    # Additional attempts after the first failed one.
    max_retries: int = 3
    # Backoff before retry k is base * 2**(k-1), capped, then jittered
    # uniformly over [0.5x, 1.5x].
    backoff_base: float = 0.5
    backoff_cap: float = 10.0
    # Total retries one session may spend before failures are abandoned
    # immediately (a dead site must not be retried forever).
    retry_budget: int = 50

    def __post_init__(self):
        # A nonsense policy must fail here, loudly, not produce a silent
        # no-retry (or retry-forever) schedule deep inside a run.
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive (or None to "
                             f"disable), got {self.deadline}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, "
                             f"got {self.backoff_base}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, "
                             f"got {self.backoff_cap}")
        if self.retry_budget < 1:
            raise ValueError(f"retry_budget must be >= 1 (a zero budget "
                             f"silently disables every retry; use "
                             f"max_retries=0 for that), "
                             f"got {self.retry_budget}")


@dataclass
class ClientStats:
    """Counts gathered by the population; windowed by the experiment."""

    interactions_completed: int = 0
    interactions_started: int = 0
    sessions_started: int = 0
    per_interaction: Dict[str, int] = field(default_factory=dict)
    response_time_sum: float = 0.0
    # Per-interaction response-time samples, for WIRT-style percentile
    # constraints (TPC-W clause 5.1).
    response_times: Dict[str, list] = field(default_factory=dict)
    # Error accounting (only populated when a RetryPolicy is active):
    # deadline expiries, mid-flight aborts (faults / transient DB
    # errors), fast rejections (503s, connection refused), retries
    # spent, and interactions abandoned after the budget ran out.
    timeouts: int = 0
    aborts: int = 0
    rejections: int = 0
    retries: int = 0
    abandoned: int = 0

    def record_error(self, kind: str) -> None:
        if kind == "timeout":
            self.timeouts += 1
        elif kind == "rejection":
            self.rejections += 1
        else:
            self.aborts += 1

    @property
    def errors(self) -> int:
        return self.timeouts + self.aborts + self.rejections

    def record(self, name: str, response_time: float) -> None:
        self.interactions_completed += 1
        self.response_time_sum += response_time
        self.per_interaction[name] = self.per_interaction.get(name, 0) + 1
        self.response_times.setdefault(name, []).append(response_time)

    def mean_response_time(self) -> float:
        if not self.interactions_completed:
            return 0.0
        return self.response_time_sum / self.interactions_completed

    def percentile(self, name: str, fraction: float = 0.9) -> Optional[float]:
        """The ``fraction`` response-time percentile of one interaction
        (None if it never completed in the window)."""
        return percentile(self.response_times.get(name), fraction)


class ClientPopulation:
    """Spawns and drives ``n_clients`` closed-loop clients.

    ``slo`` is an optional :class:`~repro.metrics.slo.SloSeries`; when
    present, every interaction's start, completion latency, and failure
    are filed into its windows during the measurement phase.
    """

    def __init__(self, sim: Simulator, n_clients: int,
                 mix: Dict[str, float],
                 site,                      # object with .perform(...)
                 rng: RngStreams,
                 choose: Callable,          # choose(mix, rng) -> name
                 think: Optional[ThinkTimeSpec] = None,
                 retry: Optional[RetryPolicy] = None, slo=None):
        if n_clients < 1:
            raise ValueError("need at least one client")
        self.sim = sim
        self.n_clients = n_clients
        self.mix = mix
        self.site = site
        self.rng = rng
        self.choose = choose
        self.think = think or ThinkTimeSpec()
        self.retry = retry
        self.slo = slo
        self.stats = ClientStats()
        self.recording = False
        self._procs = []

    def start(self) -> None:
        for client_id in range(self.n_clients):
            proc = self.sim.spawn(self._client(client_id),
                                  name=f"client{client_id}")
            self._procs.append(proc)

    def _client(self, client_id: int):
        sim = self.sim
        rng = self.rng.stream(f"client.{client_id}")
        think_mean = self.think.think_mean
        session_mean = self.think.session_mean
        retry = self.retry
        # Session-end hook: clustered sites drop the session's sticky
        # balancer bindings here (duck-typed so bare test doubles with
        # only perform()/new_session() keep working).
        end_session = getattr(self.site, "end_session", None)
        try:
            # Stagger arrivals over one mean think time to avoid a
            # thundering herd at t=0.
            yield rng.random() * think_mean
            while True:
                self.stats.sessions_started += 1
                session_end = sim.now + rng.expovariate(1.0 / session_mean)
                self.site.new_session(client_id, rng)
                budget = retry.retry_budget if retry else 0
                while sim.now < session_end:
                    name = self.choose(self.mix, rng)
                    started = self._started()
                    if retry is None:
                        yield from self.site.perform(client_id, name, rng)
                        ok = True
                    else:
                        ok, budget = yield from self._perform_with_retries(
                            client_id, name, rng, retry, budget)
                    self._finished(name, started, ok)
                    yield rng.expovariate(1.0 / think_mean)
                if end_session is not None:
                    end_session(client_id)
        except Interrupt:
            # stop() tears the population down at end of run.
            return

    # -- filing: stats and the slo series, for both loops ---------------------

    def _started(self) -> float:
        """Count an interaction starting now (and, while recording, file
        its arrival in the ``slo`` series); returns the start time."""
        self.stats.interactions_started += 1
        if self.recording and self.slo is not None:
            self.slo.record_arrival()
        return self.sim.now

    def _finished(self, name: str, started: float, ok: bool) -> float:
        """File an interaction's outcome while recording: a success in
        ``stats`` and the ``slo`` series, a failure (after its retries)
        in the series.  Returns its latency."""
        latency = self.sim.now - started
        if self.recording:
            if ok:
                self.stats.record(name, latency)
                if self.slo is not None:
                    self.slo.record(latency)
            elif self.slo is not None:
                self.slo.record_error()
        return latency

    # -- resilience: attempts, deadlines, retries ----------------------------

    def _attempt(self, client_id: int, name: str, rng, outcome: list):
        """One attempt as its own process: failures become data, not
        exceptions escaping into the kernel."""
        try:
            yield from self.site.perform(client_id, name, rng)
            outcome.append("ok")
        except Interrupt as exc:
            outcome.append("timeout" if exc.cause == "deadline" else "abort")
        except (AdmissionReject, TierDown):
            outcome.append("rejection")
        except RequestError:
            outcome.append("abort")

    def _arm_deadline(self, proc, deadline: float) -> None:
        """Interrupt ``proc`` with cause "deadline" once it expires.
        Re-arms at the same instant if the process briefly sat on the
        ready queue (where interrupts cannot land)."""
        sim = self.sim

        def fire(tries: int) -> None:
            if proc.finished:
                return
            if not proc.interrupt("deadline") and tries > 0:
                sim.schedule(0.0, lambda: fire(tries - 1))

        sim.timeout_event(deadline).add_callback(lambda __: fire(3))

    def _perform_with_retries(self, client_id: int, name: str, rng,
                              retry: RetryPolicy, budget: int):
        """Returns (succeeded, remaining_budget) via StopIteration."""
        sim = self.sim
        attempt = 0
        while True:
            outcome: list = []
            proc = sim.spawn(
                self._attempt(client_id, name, rng, outcome),
                name=f"attempt.{client_id}.{name}")
            if retry.deadline is not None:
                self._arm_deadline(proc, retry.deadline)
            yield proc
            kind = outcome[0] if outcome else "abort"
            if kind == "ok":
                return True, budget
            if self.recording:
                self.stats.record_error(kind)
            if attempt >= retry.max_retries or budget <= 0:
                if self.recording:
                    self.stats.abandoned += 1
                return False, budget
            attempt += 1
            budget -= 1
            if self.recording:
                self.stats.retries += 1
            pause = min(retry.backoff_cap,
                        retry.backoff_base * (2 ** (attempt - 1)))
            yield pause * (0.5 + rng.random())

    def stop(self) -> None:
        """Interrupt every client so a bounded run can drain to a
        quiescent kernel (used by tests and the failover experiment)."""
        for proc in self._procs:
            if not proc.finished:
                proc.interrupt("stop")

    def begin_measurement(self) -> None:
        """Zero the counters and start recording (end of ramp-up); the
        ``slo`` series anchors its window 0 here."""
        self.stats = type(self.stats)()
        self.recording = True
        if self.slo is not None:
            self.slo.start()

    def end_measurement(self) -> ClientStats:
        self.recording = False
        return self.stats
