"""Workload characterization: functional traces -> replayable profiles.

The profiling pass runs every interaction of an application several
times against the real (scaled) database through a real middleware
deployment, and compiles each captured
:class:`~repro.middleware.trace.InteractionTrace` into an
:class:`InteractionVariant` -- a flat step list the simulator replays in
virtual time.  Because query costs are priced by the engine's cost model
against nominal cardinalities, the variants carry *full-scale* service
demands even when the profiled dataset is small.

Step tuples (kind first, then payload):

  ("lock", ((table, mode), ...))      explicit LOCK TABLES
  ("unlock",)                         UNLOCK TABLES
  ("query", db_cpu_s, request_bytes, reply_bytes,
            read_tables, write_tables, count)
  ("sync_acquire", ((table, placeholder_or_None, mode), ...))
        Container locks are entity-granular ("customers#607"), but the
        concrete keys captured at profiling time belong to the profiling
        client; replaying them literally would serialize every simulated
        client on one entity.  Keys are therefore anonymized to
        placeholder slots here, and each replay draws fresh keys from the
        table's key space.  ``ids``-table keys (the RUBiS counter names)
        stay literal -- those locks really are global.
  ("sync_release", (name, ...))
  ("rmi", request_bytes, reply_bytes)
  ("ejb_work", loads, stores, field_accesses)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.middleware.trace import InteractionTrace


@dataclass(frozen=True)
class InteractionVariant:
    """One captured execution of one interaction."""

    steps: Tuple
    response_bytes: int
    image_count: int
    image_bytes: int
    query_count: int
    db_cpu_seconds: float
    ok: bool
    # Parallel to ``steps``: the code-site label ("php:/order.php",
    # "Cart.checkOut", ...) each step came from.  Consumed only by the
    # tracing layer for lock-site attribution; empty for profiles built
    # before labels existed.
    step_labels: Tuple[str, ...] = ()

    @property
    def total_reply_bytes(self) -> int:
        return self.response_bytes + self.image_bytes


@dataclass
class InteractionProfile:
    """All captured variants of one interaction."""

    name: str
    read_only: bool
    variants: List[InteractionVariant] = field(default_factory=list)

    def pick(self, rng: random.Random) -> InteractionVariant:
        return self.variants[rng.randrange(len(self.variants))]

    def mean_db_cpu(self) -> float:
        if not self.variants:
            return 0.0
        return sum(v.db_cpu_seconds for v in self.variants) / \
            len(self.variants)

    def mean_queries(self) -> float:
        if not self.variants:
            return 0.0
        return sum(v.query_count for v in self.variants) / len(self.variants)

    def mean_response_bytes(self) -> float:
        if not self.variants:
            return 0.0
        return sum(v.response_bytes for v in self.variants) / \
            len(self.variants)


@dataclass
class AppProfile:
    """Profiles for every interaction of one (app, flavor) pair."""

    app_name: str
    flavor: str                       # "php" | "servlet" | "servlet_sync" | "ejb"
    interactions: Dict[str, InteractionProfile] = field(default_factory=dict)
    # Full-scale key population per table, used to draw entity-lock keys
    # at replay time (nominal row counts from the schema statistics).
    key_spaces: Dict[str, int] = field(default_factory=dict)

    def profile(self, name: str) -> InteractionProfile:
        try:
            return self.interactions[name]
        except KeyError:
            raise KeyError(
                f"no profile for interaction {name!r} in "
                f"{self.app_name}/{self.flavor}") from None

    def mean_demand_summary(self) -> Dict[str, dict]:
        return {name: {"db_cpu_ms": 1000 * p.mean_db_cpu(),
                       "queries": p.mean_queries(),
                       "response_bytes": p.mean_response_bytes()}
                for name, p in self.interactions.items()}


def compile_trace(trace: InteractionTrace, wire_overhead: int,
                  static_store, batch_reads: int = 64) -> InteractionVariant:
    """Flatten one InteractionTrace into a replayable variant.

    Consecutive *read-only* queries are coalesced into one step carrying
    a query ``count`` (capped at ``batch_reads``): per-query driver and
    wire costs still scale with the count, but the replay needs far
    fewer simulator events -- essential for EJB variants whose
    best-sellers page alone issues thousands of single-field queries.
    Write queries and lock statements are never coalesced (their lock
    timing is the experiment).
    """
    steps: List[tuple] = []
    labels: List[str] = []           # parallel code-site label per step
    db_cpu = 0.0
    query_count = 0
    pending: Optional[list] = None   # accumulating read-only batch

    def flush():
        nonlocal pending
        if pending is not None:
            steps.append(("query", pending[0], pending[1], pending[2],
                          tuple(sorted(pending[3])), (), pending[4]))
            labels.append(pending[5])
            pending = None

    for step in trace.steps:
        if step.kind == "query":
            record = step.payload
            if record.kind == "lock":
                flush()
                steps.append(("lock", record.lock_set))
                labels.append(step.origin)
                db_cpu += record.cpu_seconds
            elif record.kind == "unlock":
                flush()
                steps.append(("unlock",))
                labels.append(step.origin)
                db_cpu += record.cpu_seconds
            else:
                request_bytes = len(record.sql) + 40 + wire_overhead
                reply_bytes = record.result_bytes + wire_overhead
                db_cpu += record.cpu_seconds
                query_count += 1
                if record.tables_written:
                    flush()
                    steps.append((
                        "query", record.cpu_seconds, request_bytes,
                        reply_bytes, record.tables_read,
                        record.tables_written, 1))
                    labels.append(step.origin)
                elif pending is None:
                    pending = [record.cpu_seconds, request_bytes,
                               reply_bytes, set(record.tables_read), 1,
                               step.origin]
                else:
                    pending[0] += record.cpu_seconds
                    pending[1] += request_bytes
                    pending[2] += reply_bytes
                    pending[3].update(record.tables_read)
                    pending[4] += 1
                    if pending[4] >= batch_reads:
                        flush()
        elif step.kind == "sync_acquire":
            flush()
            placeholders: dict = {}
            entries = []
            for name, mode in step.payload:
                table, sep, key = name.partition("#")
                if not sep or table == "ids":
                    entries.append((name, None, mode))
                else:
                    slot = placeholders.setdefault((table, key),
                                                   len(placeholders))
                    entries.append((table, slot, mode))
            steps.append(("sync_acquire", tuple(entries)))
            labels.append(step.origin)
        elif step.kind == "sync_release":
            flush()
            steps.append(("sync_release", step.payload))
            labels.append(step.origin)
        elif step.kind == "rmi_call":
            flush()
            method, request_bytes, reply_bytes = step.payload
            steps.append(("rmi", request_bytes, reply_bytes))
            labels.append(step.origin or method)
        elif step.kind == "ejb_work":
            flush()
            loads, stores, fields = step.payload
            steps.append(("ejb_work", loads, stores, fields))
            labels.append(step.origin)
    flush()

    response = trace.response
    response_bytes = response.body_bytes if response else 0
    images = response.embedded_images if response else []
    image_bytes = 0
    for path in images:
        try:
            image_bytes += static_store.size_of(path)
        except KeyError:
            image_bytes += static_store.DEFAULT_NAV_BYTES
    return InteractionVariant(
        steps=tuple(steps), response_bytes=response_bytes,
        image_count=len(images), image_bytes=image_bytes,
        query_count=query_count, db_cpu_seconds=db_cpu,
        ok=response.ok() if response else False,
        step_labels=tuple(labels))


def profile_application(app, deployment, flavor: str,
                        repetitions: int = 5,
                        seed: int = 101,
                        static_store=None) -> AppProfile:
    """Capture ``repetitions`` variants of every interaction.

    ``app`` is a BookstoreApp/AuctionApp; ``deployment`` is the
    middleware object whose ``handle(request)`` returns
    (response, trace).  For EJB pass the presentation ServletEngine.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    store = static_store if static_store is not None else app.static_store()
    wire_overhead = deployment.driver.overheads.wire_overhead_bytes \
        if hasattr(deployment, "driver") else 100
    out = AppProfile(app_name=app.name, flavor=flavor)
    for table_name, table in app.database.tables.items():
        nominal = table.schema.stats.nominal_rows
        out.key_spaces[table_name] = nominal if nominal else len(table) or 1
    rng = random.Random(seed)
    state = app.make_state(random.Random(seed + 1))
    for name in app.interaction_names():
        profile = InteractionProfile(
            name=name, read_only=app.is_read_only(name))
        for __ in range(repetitions):
            request = app.make_request(name, rng, state)
            response, trace = deployment.handle(request)
            profile.variants.append(
                compile_trace(trace, wire_overhead, store))
        out.interactions[name] = profile
    return out


def profile_all_flavors(app, repetitions: int = 5, seed: int = 101,
                        store_mode: str = "field") -> Dict[str, AppProfile]:
    """Profile php, servlet, servlet_sync, and ejb flavors of an app.

    Each flavor gets its own deployment over the app's (shared) database;
    writes from profiling accumulate, which mirrors a warmed system.
    """
    from repro.apps.base import ARCHITECTURES
    store = app.static_store()
    out: Dict[str, AppProfile] = {}
    # One seed for every flavor: identical parameter draws keep the
    # flavors' profiles comparable (the paper's configurations serve the
    # same workload).
    for flavor in ARCHITECTURES:
        kwargs = {"store_mode": store_mode} if flavor == "ejb" else {}
        deployment = app.deploy(flavor, **kwargs)
        if flavor == "ejb":
            deployment, __container = deployment
        out[flavor] = profile_application(
            app, deployment, flavor, repetitions, seed, store)
    return out


# Profiles are expensive to capture (the EJB best-sellers walk in
# particular), so they are cached per process.  Apps themselves are
# cached inside repro.apps.build_app.
_PROFILE_CACHE: Dict[str, Dict[str, AppProfile]] = {}


def get_profiles(app_name: str) -> Dict[str, AppProfile]:
    """Every flavor's profile of the default-built ``app_name``,
    captured once per process."""
    profiles = _PROFILE_CACHE.get(app_name)
    if profiles is None:
        from repro.apps import build_app
        profiles = profile_all_flavors(build_app(app_name), repetitions=3)
        _PROFILE_CACHE[app_name] = profiles
    return profiles
