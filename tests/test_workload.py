"""Tests for the client emulator and interaction selection."""

import pytest

from repro.sim import Simulator
from repro.sim.rng import RngStreams
from repro.workload.client import ClientPopulation, ClientStats, ThinkTimeSpec
from repro.workload.markov import choose_interaction


class FakeSite:
    """Instant site: records calls, costs a fixed virtual service time."""

    def __init__(self, sim, service=0.0):
        self.sim = sim
        self.service = service
        self.calls = []
        self.sessions = []

    def new_session(self, client_id, rng):
        self.sessions.append(client_id)

    def perform(self, client_id, name, rng):
        self.calls.append((self.sim.now, client_id, name))
        if self.service:
            yield self.service
        return
        yield  # pragma: no cover - generator marker


MIX = {"a": 50.0, "b": 30.0, "c": 20.0}


def run_population(n_clients, duration, think=None, service=0.0, seed=1):
    sim = Simulator()
    site = FakeSite(sim, service=service)
    population = ClientPopulation(
        sim, n_clients, MIX, site, RngStreams(seed), choose_interaction,
        think=think or ThinkTimeSpec())
    population.start()
    population.begin_measurement()
    sim.run(until=duration)
    return sim, site, population


def test_throughput_matches_little_law():
    """Closed loop with zero service: X = N / think_mean."""
    think = ThinkTimeSpec(think_mean=7.0, session_mean=1e9)
    sim, site, population = run_population(100, 700.0, think=think)
    rate = population.stats.interactions_completed / 700.0
    assert rate == pytest.approx(100 / 7.0, rel=0.05)


def test_interaction_frequencies_follow_mix():
    think = ThinkTimeSpec(think_mean=1.0, session_mean=1e9)
    __, __site, population = run_population(50, 400.0, think=think)
    counts = population.stats.per_interaction
    total = sum(counts.values())
    assert counts["a"] / total == pytest.approx(0.5, abs=0.03)
    assert counts["b"] / total == pytest.approx(0.3, abs=0.03)


def test_sessions_restart_after_expiry():
    think = ThinkTimeSpec(think_mean=1.0, session_mean=10.0)
    sim, site, population = run_population(10, 300.0, think=think)
    # ~10 clients x 300s / 10s per session ~ 300 sessions.
    assert population.stats.sessions_started > 100
    assert len(site.sessions) > 100


def test_measurement_window_zeroes_counts():
    sim = Simulator()
    site = FakeSite(sim)
    population = ClientPopulation(sim, 10, MIX, site, RngStreams(2),
                                  choose_interaction)
    population.start()
    sim.run(until=50.0)
    population.begin_measurement()
    assert population.stats.interactions_completed == 0
    sim.run(until=100.0)
    measured = population.end_measurement()
    assert measured.interactions_completed > 0
    # After end_measurement, the returned stats object stops growing.
    frozen = measured.interactions_completed
    sim.run(until=150.0)
    assert measured.interactions_completed == frozen


def test_response_time_recorded():
    think = ThinkTimeSpec(think_mean=5.0, session_mean=1e9)
    __, __site, population = run_population(
        5, 200.0, think=think, service=0.5)
    assert population.stats.mean_response_time() == pytest.approx(0.5,
                                                                  rel=0.01)


def test_population_requires_clients():
    sim = Simulator()
    with pytest.raises(ValueError):
        ClientPopulation(sim, 0, MIX, FakeSite(sim), RngStreams(1),
                         choose_interaction)


def test_client_stats_record():
    stats = ClientStats()
    stats.record("x", 1.0)
    stats.record("x", 3.0)
    assert stats.per_interaction == {"x": 2}
    assert stats.mean_response_time() == 2.0
    assert ClientStats().mean_response_time() == 0.0


# ------------------------------------------------------------------ markov

def test_choose_interaction_covers_all():
    import random
    rng = random.Random(3)
    seen = {choose_interaction(MIX, rng) for __ in range(500)}
    assert seen == {"a", "b", "c"}


def test_choose_interaction_rejects_empty_mix():
    import random
    with pytest.raises(ValueError):
        choose_interaction({"a": 0.0}, random.Random(1))


def test_stationary_distribution_normalizes():
    """Draws follow the normalized mix (the chain's stationary
    distribution)."""
    import random
    from collections import Counter
    rng = random.Random(5)
    drawn = Counter(choose_interaction(MIX, rng) for __ in range(10_000))
    for name, weight in MIX.items():
        assert drawn[name] / 10_000 == pytest.approx(weight / 100.0,
                                                     abs=0.02)
