"""How a site is composed (DESIGN.md "How a site is composed"): the
order of interposers on the three seams, what that order means for a
request, and the generator-delegation depth each composition costs."""

import random

import pytest

from repro.faults.errors import BackpressureError, CircuitOpenError
from repro.harness.experiment import ExperimentSpec, build_site
from repro.overload.degradation import DegradationPolicy
from repro.sim import Simulator
from repro.topology.spec import parse_topology

from tests.test_golden_composed_sites import _app_and_profiles


@pytest.fixture(scope="module")
def bookstore():
    return _app_and_profiles("bookstore")     # (app, profiles by flavor)


@pytest.fixture(scope="module")
def auction():
    return _app_and_profiles("auction")


def _site(fixture, topology, degradation=None):
    app, profiles = fixture
    config = parse_topology(topology)
    profile = profiles[config.profile_flavor]
    sim = Simulator()
    site = build_site(sim, ExperimentSpec(
        config=config, profile=profile, mix={}, clients=1, seed=5,
        degradation=degradation))
    return sim, site, profile


def chain(site, seam):
    """Qualified names along one seam, outermost first, down to the
    mechanism (a bound method of the site itself)."""
    names = []
    bound = getattr(site, "_" + seam)
    while bound.__self__ is not site:
        names.append(bound.__qualname__)
        bound = getattr(bound.__self__, "next_" + seam)
    names.append(bound.__func__.__qualname__)
    return names


# -- attach order ---------------------------------------------------------------


def test_guard_then_cache_then_tier_on_a_sharded_topology(auction):
    """Cache + degradation over shards: on every seam the guard is
    outermost, then the cache, then the tier's own mechanism."""
    __, site, __ = _site(auction, "Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)",
                         DegradationPolicy())
    assert chain(site, "db_query") == [
        "DegradationState.db_query", "SiteCache.db_query",
        "ShardedSite._db_statement"]
    # The auction's fragments are served from Apache (web level).
    assert chain(site, "generate") == [
        "DegradationState.generate", "SiteCache.generate",
        "SimulatedSite._run_container"]
    assert site._fragments is None
    assert chain(site, "front") == [
        "DegradationState.front", "SimulatedSite._perform"]
    assert not [name for name in vars(site)
                if callable(getattr(type(site), name, None))], \
        "an instance attribute shadows a method of the site class"


def test_bookstore_fragments_stay_inside_the_container(bookstore):
    __, site, __ = _site(bookstore, "Ws-Servlet-Cache{1}-DB[2]")
    assert chain(site, "generate") == ["SimulatedSite._run_container"]
    assert site._fragments is site.cache
    assert chain(site, "db_query") == [
        "SiteCache.db_query", "ShardedSite._db_statement"]


def test_disabled_levers_and_zero_ttls_are_not_interposed(bookstore):
    __, site, __ = _site(
        bookstore, "Ws-Servlet-DB",
        DegradationPolicy(container_concurrency=None, db_concurrency=None,
                          breaker=None))
    assert chain(site, "generate") == ["SimulatedSite._run_container"]
    assert chain(site, "db_query") == ["SimulatedSite._db_statement"]
    assert chain(site, "front") == [
        "DegradationState.front", "SimulatedSite._perform"]


# -- what the order means for a request -----------------------------------------


def _run_one(sim, site, interaction, client=0):
    """Perform one interaction to completion; returns the exception it
    raised, if any."""
    raised = []

    def request():
        rng = random.Random(client)
        site.new_session(client, rng)
        try:
            yield from site.perform(client, interaction, rng)
        except (CircuitOpenError, BackpressureError) as exc:
            raised.append(exc)

    sim.spawn(request())
    sim.run()
    return raised[0] if raised else None


def test_open_breaker_fails_a_cacheable_read_without_a_cache_lookup(
        bookstore):
    sim, site, profile = _site(bookstore, "Ws-Servlet-Cache{1}-DB[2]",
                               DegradationPolicy(degradable=frozenset()))
    # admin_request writes (so no fragment) but opens with a plain read.
    assert not profile.interactions["admin_request"].read_only
    assert _run_one(sim, site, "admin_request") is None
    lookups = site.cache.stats.query_lookups
    assert lookups > 0, "the interaction has no cacheable read"

    site.degradation.breaker._trip()
    exc = _run_one(sim, site, "admin_request", client=1)
    assert isinstance(exc, CircuitOpenError)
    assert site.cache.stats.query_lookups == lookups


def test_full_container_gate_answers_busy_before_any_fragment_lookup(
        auction):
    sim, site, profile = _site(
        auction, "Ws-Servlet-Cache{1}-DB",
        DegradationPolicy(container_concurrency=1, container_backlog=0,
                          degradable=frozenset()))
    assert profile.interactions["view_item"].read_only
    assert _run_one(sim, site, "view_item") is None
    lookups = site.cache.stats.page_lookups
    assert lookups == 1

    assert site.degradation.container_gate.try_acquire()   # gate now full
    exc = _run_one(sim, site, "view_item", client=1)
    assert isinstance(exc, BackpressureError) and exc.tier == "servlet"
    assert site.cache.stats.page_lookups == lookups
    assert site.degradation.backpressure_rejects["servlet"] == 1


# -- one epilogue for the closed and the open loop -------------------------------


def test_open_loop_point_carries_cache_and_shard_records(bookstore):
    """An open-loop point runs through the same ``run_experiment`` and
    ``measure_point`` as the closed loop: an open-loop point on a cached,
    sharded topology carries ``point.cache`` and ``point.shard``, and the
    traced verdict sees the cache aggregates."""
    from repro.harness.experiment import run_experiment
    from repro.overload import OverloadSpec, PoissonProfile, ThinkTimeModel

    app, profiles = bookstore
    config = parse_topology("Ws-Servlet-Cache{1}-DB[2]")
    point = run_experiment(ExperimentSpec(
        config=config, profile=profiles[config.profile_flavor],
        mix=app.mix("shopping"), clients=0, seed=3, trace=True,
        ramp_up=3.0, measure=12.0, ramp_down=2.0,
        overload=OverloadSpec(arrivals=PoissonProfile(rate=3.0),
                              think=ThinkTimeModel(mean=0.5),
                              session_mean=10.0)))
    assert point.overload_stats.sessions_started > 0
    lookups = point.cache.query_lookups + point.cache.page_lookups
    assert lookups > 0
    assert point.shard.single_shard_reads > 0
    assert point.bottleneck_report.cache_lookups == lookups


# -- the no-extra-frame rule -------------------------------------------------------

#: (topology, degraded?) -> deepest ``yield from`` chain, counted from
#: ``site.perform``, while one client performs every bookstore
#: interaction once.  A seam is an attribute bound once or an ``is
#: None`` test, never a pass-through generator: these numbers may fall,
#: and rise only with a mechanism that does work.  (The commit before
#: the seams measured 12 and 15 on the two cached sites, whose
#: subclass bodies delegated to ``super()`` for uncacheable pages.)
DEPTHS = {
    ("WsPhp-DB", False): 8,
    ("Ws-Servlet-DB", False): 8,
    ("Ws-Servlet-EJB-DB", False): 8,
    ("Ws{2}-Servlet{2}-DB(1+2)", False): 9,
    ("Ws{2}-Servlet{2}-Cache{2}-DB(1+1)", False): 10,
    ("Ws{2}-Servlet{2}-DB[4](1+1)", False): 9,
    ("Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)", True): 13,
    ("Ws-Servlet-DB", True): 11,
}


@pytest.mark.parametrize("topology,degraded", sorted(DEPTHS))
def test_generator_delegation_depth_is_pinned(bookstore, topology, degraded):
    sim, site, profile = _site(
        bookstore, topology, DegradationPolicy() if degraded else None)
    rng = random.Random(0)
    site.new_session(0, rng)

    def requests():
        for interaction in sorted(profile.interactions):
            yield from site.perform(0, interaction, rng)

    proc = sim.spawn(requests())
    deepest = 0
    while sim.step():
        depth, gen = 0, proc._gen
        while gen is not None:
            depth += 1
            gen = getattr(gen, "gi_yieldfrom", None)
        deepest = max(deepest, depth)
    assert proc.finished
    # ``requests`` above is the driver, not part of the site.
    assert deepest - 1 == DEPTHS[topology, degraded]
