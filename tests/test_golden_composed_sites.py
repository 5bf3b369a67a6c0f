"""Golden guard for how a site is composed (test + generator).

``tests/golden/composed_sites.json`` pins what tiny runs *report* on
every composed topology family -- cache tier, shards, replicas, pools,
with and without a tight :class:`DegradationPolicy`, untraced and
traced -- so a change to how the site is put together (seams, tiers,
interposers; DESIGN.md "How a site is composed") can prove it moved no
number and no span:

* ``point`` -- SHA-256 of ``asdict(point)``;
* ``cache`` / ``shard`` -- the measurement-window ``point.cache`` /
  ``point.shard`` records, in clear (they are small and a diff of them
  names the counter that moved);
* ``degradation`` -- the layer's tallies, in clear: degraded pages,
  busy pages per tier, breaker trips and fast-fails (the degraded
  points also carry a short database-connection glitch, so the breaker
  opens and recovers inside the window);
* ``chrome_trace`` / ``bottleneck_report`` (traced points) -- SHA-256
  of the Chrome trace-event JSON and of the rendered bottleneck
  report, which is the only place the nesting of ``web.fragment``,
  ``cache.get`` and ``web.degraded`` spans is checked.

Regenerate (only when site behaviour changes on purpose)::

    PYTHONPATH=src python tests/test_golden_composed_sites.py

The file was generated at the commit *before* the seams were
introduced and must pass unchanged on any later structure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "composed_sites.json"

#: (application, mix, topology): the composed families, one of each
#: way the cache tier, the shard router and the replica sets meet.
SITES = (
    ("bookstore", "ordering", "Ws{2}-Servlet{2}-Cache{2}-DB[2](1+1)"),
    ("bookstore", "shopping", "WsPhp-Cache{1}-DB(1+1)"),
    ("bookstore", "shopping", "Ws-Servlet-Cache{2}-DB"),
    ("bookstore", "ordering", "Ws-Servlet-EJB-Cache{1}-DB[2]"),
    ("auction", "bidding", "Ws-Servlet-Cache{2}-DB(1+1)"),   # web fragments
    ("auction", "bidding", "WsPhp-Cache{1}-DB"),
)
CLIENTS = 16
PHASES = dict(ramp_up=3.0, measure=8.0, ramp_down=1.0)
GLITCH = dict(at=6.0, duration=0.5)     # degraded points only
THINK_MEAN = 0.4
SEED = 11


def _tight_policy(profile):
    """Gates and shed threshold small enough that, at CLIENTS with
    THINK_MEAN, degraded pages, busy pages and database backpressure
    all occur within the measurement window, and a breaker quick enough
    to open on the GLITCH.  Every read-only page is degradable (the
    default browse class only names bookstore pages)."""
    from repro.overload.degradation import BreakerPolicy, DegradationPolicy
    return DegradationPolicy(
        container_concurrency=3, container_backlog=2,
        db_concurrency=1, db_backlog=1, shed_queue_threshold=1,
        breaker=BreakerPolicy(window=6, min_calls=3, reset_timeout=1.0),
        degradable=frozenset(name for name, interaction
                             in profile.interactions.items()
                             if interaction.read_only))


@lru_cache(maxsize=None)
def _app_and_profiles(app_name: str):
    """``(app, profiles by flavor)`` at tiny scale; shared with
    ``tests/test_site_composition.py``."""
    from repro.apps.auction import AuctionApp, build_auction_database
    from repro.apps.bookstore import BookstoreApp, build_bookstore_database
    from repro.harness.profiles import profile_all_flavors

    if app_name == "bookstore":
        app = BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))
    else:
        app = AuctionApp(build_auction_database(scale=0.0005, tiny=True))
    return app, profile_all_flavors(app, repetitions=2)


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()).hexdigest()


def cases():
    for app_name, mix, topology in SITES:
        for degraded in (False, True):
            for trace in (False, True):
                yield app_name, mix, topology, degraded, trace


def case_id(case) -> str:
    app_name, __, topology, degraded, trace = case
    return (f"{app_name}:{topology}"
            f"{':degraded' if degraded else ''}{':traced' if trace else ''}")


def run_case(case) -> dict:
    """One tiny point and everything it reports, as a JSON-able dict."""
    import repro.harness.experiment as experiment
    from repro.faults.plan import FaultPlan
    from repro.obs import chrome_trace, render_report
    from repro.topology.spec import parse_topology
    from repro.workload.client import RetryPolicy, ThinkTimeSpec

    app_name, mix, topology, degraded, trace = case
    app, profiles = _app_and_profiles(app_name)
    config = parse_topology(topology)
    profile = profiles[config.profile_flavor]
    spec = experiment.ExperimentSpec(
        config=config, profile=profile,
        mix=app.mix(mix), clients=CLIENTS, seed=SEED, app_name=app_name,
        think=ThinkTimeSpec(think_mean=THINK_MEAN), trace=trace,
        # Busy pages and backpressure reach the client as rejections;
        # the short deadline also interrupts requests inside the gates.
        retry=RetryPolicy(deadline=2.0, max_retries=1, backoff_base=0.1),
        degradation=_tight_policy(profile) if degraded else None,
        fault_plan=FaultPlan.db_conn_glitch(**GLITCH) if degraded else None,
        **PHASES)

    point = experiment.run_experiment(spec)

    record = {"point": _sha(asdict(point)),
              "interactions": round(point.throughput_ipm
                                    * PHASES["measure"] / 60.0),
              "cache": asdict(point.cache),
              "shard": asdict(point.shard)
              if getattr(point, "shard", None) is not None else None}
    if degraded:
        state = point.degradation
        record["degradation"] = {
            "degraded_served": state.degraded_served,
            "backpressure_rejects": dict(state.backpressure_rejects),
            "breaker_trips": state.breaker.trips,
            "breaker_fast_fails": state.breaker.fast_fails}
    if trace:
        record["chrome_trace"] = _sha(chrome_trace(point.tracer.requests))
        record["bottleneck_report"] = _sha(
            render_report(point.bottleneck_report))
    return record


@pytest.mark.parametrize("case", list(cases()), ids=case_id)
def test_composed_site_matches_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_case(case) == golden[case_id(case)]


def test_tight_policy_exercises_every_lever():
    """The golden only guards the degradation paths if they ran: over
    the degraded points there must be degraded pages, busy pages from
    the container gate, backpressure from the database gate and an
    opened breaker."""
    golden = json.loads(GOLDEN_PATH.read_text())
    tallies = [entry["degradation"] for entry in golden.values()
               if "degradation" in entry]
    assert len(tallies) == 2 * len(SITES)
    assert all(t["degraded_served"] > 0 for t in tallies)
    assert sum(t["backpressure_rejects"]["servlet"] for t in tallies) > 0
    assert sum(t["backpressure_rejects"]["db"] for t in tallies) > 0
    assert sum(t["breaker_trips"] > 0 for t in tallies) >= len(SITES)
    assert sum(t["breaker_fast_fails"] for t in tallies) > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {case_id(case): run_case(case) for case in cases()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}: {len(list(cases()))} points")
