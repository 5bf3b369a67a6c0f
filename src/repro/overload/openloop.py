"""Open-loop session population: arrivals the site does not control.

The closed-loop :class:`~repro.workload.client.ClientPopulation` keeps a
fixed number of browsers alive forever; here sessions *arrive* on a rate
process (:mod:`repro.overload.arrivals`), run a think-time loop for an
exponential session duration, and leave -- or abandon early when the
site gets slow.  Offered load is the arrival rate times the session
length, independent of how the site performs: past saturation, queues
grow and the goodput-vs-offered-load curve bends.

The population reuses the closed-loop machinery wholesale: the retry /
deadline / backoff path, error classification, and stats windowing all
come from the base class.  Each session draws from its own named RNG
stream, so runs are bit-reproducible under a pinned seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional

from repro.faults.errors import AdmissionReject, RequestError, TierDown
from repro.overload.arrivals import (
    AbandonmentSpec,
    PoissonProfile,
    ThinkTimeModel,
)
from repro.sim.kernel import Interrupt, Simulator
from repro.sim.rng import RngStreams
from repro.workload.client import ClientPopulation, ClientStats, RetryPolicy


@dataclass(frozen=True)
class OverloadSpec:
    """Open-loop run parameters carried by an ``ExperimentSpec``."""

    # Session arrival process: any profile from repro.overload.arrivals.
    arrivals: object = dataclass_field(
        default_factory=lambda: PoissonProfile(rate=1.0))
    think: ThinkTimeModel = dataclass_field(default_factory=ThinkTimeModel)
    # Session duration stays negative-exponential (the paper's model);
    # abandonment can end it early.
    session_mean: float = 900.0
    abandonment: Optional[AbandonmentSpec] = None
    # Hard cap on live sessions (the front end's connection table);
    # arrivals beyond it are turned away before touching the site.
    max_concurrent_sessions: Optional[int] = None

    def __post_init__(self):
        if not hasattr(self.arrivals, "arrivals"):
            raise TypeError(f"arrivals must expose an arrivals(rng) "
                            f"generator, got {self.arrivals!r}")
        if self.session_mean <= 0:
            raise ValueError(f"session_mean must be positive, "
                             f"got {self.session_mean}")
        if self.max_concurrent_sessions is not None \
                and self.max_concurrent_sessions < 1:
            raise ValueError(f"max_concurrent_sessions must be >= 1 (or "
                             f"None), got {self.max_concurrent_sessions}")


@dataclass
class OpenLoopStats(ClientStats):
    """Closed-loop counters plus the open-loop-only ones."""

    sessions_abandoned: int = 0
    turned_away: int = 0


class OpenLoopPopulation(ClientPopulation):
    """Drives sessions arriving on ``spec.arrivals``; ``slo`` as for the
    closed loop."""

    def __init__(self, sim: Simulator, spec: OverloadSpec,
                 mix: Dict[str, float], site, rng: RngStreams,
                 choose, retry: Optional[RetryPolicy] = None, slo=None):
        super().__init__(sim, 1, mix, site, rng, choose, retry=retry,
                         slo=slo)
        self.spec = spec
        self.stats: OpenLoopStats = OpenLoopStats()
        self.live_sessions = 0
        self._next_session = 0

    # Closed-loop start() spawns n_clients loops; here one arrival
    # process spawns a session process per arrival instead.
    def start(self) -> None:
        proc = self.sim.spawn(self._arrivals(), name="openloop.arrivals")
        self._procs.append(proc)

    def _arrivals(self):
        spec = self.spec
        rng = self.rng.stream("openloop.arrivals")
        try:
            for gap in spec.arrivals.arrivals(rng):
                yield gap
                cap = spec.max_concurrent_sessions
                if cap is not None and self.live_sessions >= cap:
                    self.stats.turned_away += 1
                    continue
                session_id = self._next_session
                self._next_session += 1
                proc = self.sim.spawn(self._session(session_id),
                                      name=f"session{session_id}")
                self._procs.append(proc)
                # Keep the teardown list from growing unboundedly.
                if len(self._procs) % 256 == 0:
                    self._procs = [p for p in self._procs
                                   if not p.finished]
        except Interrupt:
            return

    def _session(self, session_id: int):
        sim = self.sim
        spec = self.spec
        rng = self.rng.stream(f"session.{session_id}")
        retry = self.retry
        abandon = spec.abandonment
        end_session = getattr(self.site, "end_session", None)
        self.live_sessions += 1
        try:
            self.stats.sessions_started += 1
            self.site.new_session(session_id, rng)
            session_end = sim.now + rng.expovariate(1.0 / spec.session_mean)
            budget = retry.retry_budget if retry else 0
            while sim.now < session_end:
                name = self.choose(self.mix, rng)
                started = self._started()
                if retry is None:
                    ok = yield from self._bare_attempt(session_id, name,
                                                       rng)
                else:
                    ok, budget = yield from self._perform_with_retries(
                        session_id, name, rng, retry, budget)
                latency = self._finished(name, started, ok)
                if abandon is not None:
                    impatient = latency > abandon.patience or \
                        (not ok and abandon.on_error)
                    if impatient and rng.random() < abandon.probability:
                        if self.recording:
                            self.stats.sessions_abandoned += 1
                        break
                yield spec.think.draw(rng)
            if end_session is not None:
                end_session(session_id)
        except Interrupt:
            return
        finally:
            self.live_sessions -= 1

    def _bare_attempt(self, session_id: int, name: str, rng):
        """One attempt without the retry subprocess: open-loop sessions
        must survive rejections/faults even with no RetryPolicy."""
        try:
            yield from self.site.perform(session_id, name, rng)
            return True
        except (AdmissionReject, TierDown):
            if self.recording:
                self.stats.record_error("rejection")
            return False
        except RequestError:
            if self.recording:
                self.stats.record_error("abort")
            return False

    def begin_measurement(self) -> None:
        turned_away = self.stats.turned_away
        super().begin_measurement()
        # turned_away is a whole-run tally (it has no per-window
        # meaning); carry it across the reset.
        self.stats.turned_away = turned_away
