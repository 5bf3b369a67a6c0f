"""One workload in one fresh process: cold set-up, a warm-up pass, timed
passes, output checks, and -- when tracing -- a traced pass, the isolated
layer rates and the overhead ratios.

``run.py`` starts this file as ``python worker.py '<json arguments>'``
with ``PYTHONHASHSEED=0`` and ``PYTHONPATH=src`` and reads one JSON
object from the last line of its standard output.  Closed loop, one
client, one thread: nothing here runs concurrently.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()    # before any repro import: set-up is cold

import gc                                                   # noqa: E402
import hashlib                                              # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import resource                                             # noqa: E402
import statistics                                           # noqa: E402
import sys                                                  # noqa: E402
from collections import Counter                             # noqa: E402
from dataclasses import asdict                              # noqa: E402
from statistics import fmean                                # noqa: E402
from time import perf_counter                               # noqa: E402

import catalog                                              # noqa: E402
import layers                                               # noqa: E402
import workloads                                            # noqa: E402
from tracing import Sampler, SpanRecorder, install_timing_driver  # noqa: E402

PROFILE_REPETITIONS = 3        # what repro.experiments' profile cache uses
INTERPOSER_PACKAGES = ("repro.cluster", "repro.cache", "repro.shard",
                       "repro.overload")
SHARE_LAYERS = tuple(m.name.split(".")[0] for m in catalog.METRICS
                     if m.name.endswith(".self_share"))
MAX_FAILURES_KEPT = 20
KEEP_EVERY_NTH_TRACE = 12      # ~500 interaction traces feed compile_trace
WIRE_OVERHEAD_BYTES = 110      # the JDBC-like driver's; prices nothing here


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Outcome:
    """What a workload hands back to ``run.py``."""

    def __init__(self, args: dict, recorder: SpanRecorder, setup_s: float):
        self.args = args
        self.recorder = recorder
        self.samples = {"setup_s": [setup_s]}
        self.values: dict = {}
        self.attempted = 0
        self.failures: list = []
        self.extra: dict = {}

    def add(self, name: str, sample) -> None:
        """One more sample of a metric, whose value is their median."""
        self.samples.setdefault(name, []).append(sample)

    def set(self, name: str, value) -> None:
        """State a metric's value outright, its samples kept for spread."""
        self.values[name] = value

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def as_dict(self) -> dict:
        return {
            "workload": self.args["workload"],
            "ops_attempted": self.attempted,
            "ops_failed": len(self.failures),
            "failures": self.failures[:MAX_FAILURES_KEPT],
            "samples": self.samples,
            "values": self.values,
            **self.extra,
        }


class TimedPasses:
    """Host seconds of every unit of work -- a simulated point, a page
    stream -- in every timed pass over the same inputs."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.passes: list = []

    def wanted(self) -> bool:
        """Timed passes go on until the measuring window is used up."""
        return not self.passes or \
            sum(map(sum, self.passes)) < self.seconds

    def steady(self, units=None) -> float:
        """A pass with each unit at its median over the timed passes: a
        burst of interference then costs one unit of one pass, where
        the median of whole passes would keep a third of it."""
        columns = list(zip(*self.passes))
        return sum(statistics.median(columns[unit])
                   for unit in (range(len(columns)) if units is None
                                else units))


def collect_garbage() -> None:
    """Before every simulated point and every functional pass, outside
    their timing: the previous one's cyclic garbage otherwise dies at a
    moment that varies from run to run, inside whatever is timed next,
    and moves the peak RSS with it."""
    gc.collect()


# -- simulated workloads ------------------------------------------------------

def set_up_sim(workload: str, recorder: SpanRecorder, repetitions: int):
    from repro.apps import build_app
    from repro.harness.profiles import profile_all_flavors

    apps, profiles = {}, {}
    for name in workloads.sim_apps(workload):
        with recorder.span("apps.build_app", name):
            apps[name] = build_app(name)
        with recorder.span("harness.profile_all_flavors", name):
            profiles[name] = profile_all_flavors(apps[name],
                                                 repetitions=repetitions)
    return apps, profiles


def point_stats(point) -> dict:
    """Every simulated statistic of one point, exactly as returned."""
    stats = {"point": asdict(point)}
    for name in ("cache", "shard"):
        part = getattr(point, name, None)
        if part is not None:
            stats[name] = asdict(part)
    load = getattr(point, "overload_stats", None)
    if load is not None:
        stats["overload"] = {
            "completed": load.interactions_completed,
            "started": load.interactions_started,
            "sessions_started": load.sessions_started,
            "timeouts": load.timeouts, "aborts": load.aborts,
            "rejections": load.rejections, "retries": load.retries,
            "abandoned": load.abandoned,
            "sessions_abandoned": load.sessions_abandoned,
            "turned_away": load.turned_away}
        slo = point.slo
        stats["slo"] = {
            "windows_total": slo.windows_total,
            "windows_violating": slo.windows_violating,
            "offered_per_s": slo.offered_per_s,
            "goodput_per_s": slo.goodput_per_s,
            "error_per_s": slo.error_per_s,
            "p50": slo.p50, "p95": slo.p95, "p99": slo.p99}
        state = point.degradation
        stats["degradation"] = {
            "degraded_served": state.degraded_served,
            "breaker_trips": state.breaker.trips}
    return stats


def interactions_of(spec, stats: dict) -> int:
    if "overload" in stats:
        return stats["overload"]["completed"]
    return round(stats["point"]["throughput_ipm"] * spec.measure / 60.0)


def hit_rate(cache: dict, kind: str) -> float:
    lookups = cache[f"{kind}_hits"] + cache[f"{kind}_misses"]
    return cache[f"{kind}_hits"] / lookups if lookups else 0.0


def sanity_failures(spec, stats: dict) -> list:
    """The laws every simulated point must obey, whatever its load."""
    out = []
    point = stats["point"]
    if not point["throughput_ipm"] > 0:
        out.append("throughput is not positive")
    for role, share in point["cpu"].items():
        if share is not None and not 0.0 <= share <= 1.05:
            out.append(f"{role} utilization {share:.3f} outside [0, 1.05]")
    if spec.overload is None:
        # A client completes at most one interaction per think time, so
        # the window's count is bounded by a Poisson count of that mean.
        expected = spec.clients * spec.measure / spec.think.think_mean
        ceiling = 1.05 * expected + 4.0 * expected ** 0.5
        completed = interactions_of(spec, stats)
        if completed > ceiling:
            out.append(f"{completed} interactions in the window, above "
                       f"clients/think = {ceiling:.0f}")
    if "cache" in stats:
        for kind in ("query", "page"):
            if not 0.0 <= hit_rate(stats["cache"], kind) <= 1.0:
                out.append(f"cache {kind} hit rate outside [0, 1]")
    if "shard" in stats and spec.fault_plan is None \
            and stats["shard"]["twopc_aborts"] != 0:
        out.append(f"{stats['shard']['twopc_aborts']} 2PC aborts "
                   f"with no fault planned")
    return out


def sim_pass(specs, outcome: Outcome, disturbance_end=None):
    """Run every point once: (wall seconds per point, statistics per
    point).  The points themselves are dropped at once: a point with
    degradation installed keeps its whole simulator alive.

    ``disturbance_end`` is when the last point's planned burst and
    outage are over; its recovery time joins that point's statistics.
    """
    from repro.harness.experiment import run_experiment

    walls, all_stats = [], []
    for index, spec in enumerate(specs):
        outcome.attempted += 1
        collect_garbage()
        stats = None
        start = perf_counter()
        try:
            with outcome.recorder.span("harness.run_experiment", index):
                point = run_experiment(spec)
            stats = point_stats(point)
            if disturbance_end is not None and spec is specs[-1]:
                from repro.metrics.slo import time_to_recover
                stats["recovery_s"] = time_to_recover(
                    point.slo_windows, spec.slo, disturbance_end)
            del point
        except Exception as exc:   # a failed point is a failed operation
            outcome.fail(f"{spec.config.name}: {type(exc).__name__}: {exc}")
        walls.append(perf_counter() - start)
        all_stats.append(stats)
    return walls, all_stats


def add_model_metrics(outcome: Outcome, specs, stats: list) -> None:
    """The simulated-time statistics of one pass; they repeat exactly."""
    add = outcome.add
    plain = [s["point"] for s in stats]
    add("sim.events", sum(p["kernel_events"] for p in plain))
    add("workload.interactions",
        sum(interactions_of(spec, s) for spec, s in zip(specs, stats)))
    add("workload.sim_ipm", fmean(p["throughput_ipm"] for p in plain))
    add("workload.sim_rt_s", fmean(p["mean_response_time"] for p in plain))
    add("machine.db_cpu_util", fmean(p["cpu"]["database"] for p in plain))
    add("machine.web_cpu_util", fmean(p["cpu"]["web_server"] for p in plain))
    add("net.web_nic_mbps", fmean(p["web_nic_tx_mbps"] for p in plain))
    add("topology.db_lock_wait_s",
        fmean(p["db_lock_wait_per_interaction"] for p in plain))
    add("topology.sync_lock_wait_s",
        fmean(p["sync_lock_wait_per_interaction"] for p in plain))
    for s in stats:
        if "cache" in s:
            add("cache.query_hit_rate", hit_rate(s["cache"], "query"))
            add("cache.page_hit_rate", hit_rate(s["cache"], "page"))
            add("cache.absorbed_queries", s["cache"]["absorbed_queries"])
            add("cache.evictions", s["cache"]["evictions"])
        if "shard" in s:
            for name in ("scatter_legs", "cross_shard_spans",
                         "twopc_commits", "twopc_aborts"):
                add(f"shard.{name}", s["shard"][name])
    loaded = [s for s in stats if "overload" in s]
    if not loaded:
        return

    def total(part, name):
        return sum(s[part][name] for s in loaded)
    add("overload.degraded_served", total("degradation", "degraded_served"))
    add("overload.rejections", total("overload", "rejections"))
    add("overload.abandoned_sessions", total("overload", "sessions_abandoned"))
    add("overload.turned_away", total("overload", "turned_away"))
    add("overload.breaker_trips", total("degradation", "breaker_trips"))
    add("metrics.slo_windows_violating", total("slo", "windows_violating"))
    add("metrics.slo_goodput_per_s",
        fmean(s["slo"]["goodput_per_s"] for s in loaded))
    recovery = stats[-1]["recovery_s"]
    add("metrics.recovery_s", -1.0 if recovery is None else recovery)


def add_sampled_shares(outcome: Outcome, sampler: Sampler,
                       traced_wall: float) -> None:
    shares = sampler.shares()
    for layer in SHARE_LAYERS:
        outcome.add(f"{layer}.self_share", shares.get(layer, 0.0))
    outcome.extra["sampler"] = {"samples": sampler.samples,
                                "asked_interval_s": sampler.interval,
                                "traced_pass_s": traced_wall,
                                "counts": sampler.counts}
    outcome.add("suite.sampler_overhead_ratio",
                traced_wall / outcome.values["run_wall_s"])


def overhead_ratio(plain_spec, variant_spec):
    """Host time of a variant of one point over the plain point's; the
    plain runs bracket the variant so that drift cancels.  Returns the
    ratio, the faster plain wall time, and both points."""
    from repro.harness.experiment import run_experiment

    def timed(spec):
        start = perf_counter()
        point = run_experiment(spec)
        return perf_counter() - start, point

    before, plain = timed(plain_spec)
    wall, variant = timed(variant_spec)
    after, __ = timed(plain_spec)
    return wall / ((before + after) / 2.0), min(before, after), plain, variant


def trace_sim_extras(outcome: Outcome, apps, profiles) -> None:
    """The isolated rates and overhead ratios this workload explains."""
    args = outcome.args
    budget = args["rate_budget_s"]

    def canonical(**extra):
        return workloads.canonical_spec(apps, profiles, args["seed"],
                                        args["smoke"], **extra)

    if args["workload"] == "sim-paper6":
        rates = layers.kernel_rates(budget)
        ratio, wall, plain, traced = overhead_ratio(
            canonical(), canonical(trace=True))
        if asdict(plain) != {**asdict(traced), "bottleneck": None}:
            outcome.fail("tracing changed the canonical point's statistics")
        outcome.add("obs.trace_overhead_ratio", ratio)
        outcome.add("sim.canonical_events", plain.kernel_events)
        outcome.add("sim.canonical_events_per_s", plain.kernel_events / wall)
    elif args["workload"] == "sim-scaleout":
        rates = layers.scaleout_rates(budget)
    else:
        rates = layers.timeout_cancel_rate(budget)
        ratio, __, plain, idle = overhead_ratio(
            canonical(),
            canonical(degradation=workloads.idle_degradation_policy()))
        if asdict(plain) != asdict(idle):
            outcome.fail("an idle degradation policy changed the canonical "
                         "point's statistics")
        outcome.add("overload.degradation_overhead_ratio", ratio)
    for name, value in rates.items():
        outcome.add(name, value)


def run_sim(args: dict) -> Outcome:
    workload, seed, smoke = args["workload"], args["seed"], args["smoke"]
    recorder = SpanRecorder()
    apps, profiles = set_up_sim(
        workload, recorder, 1 if smoke else PROFILE_REPETITIONS)
    outcome = Outcome(args, recorder, perf_counter() - _PROCESS_START)
    outcome.add("apps.build_s", recorder.duration("apps.build_app"))
    outcome.add("harness.profile_capture_s",
                recorder.duration("harness.profile_all_flavors"))
    if args["setup_only"]:
        return outcome

    disturbance_end = None
    if workload == "sim-paper6":
        specs = workloads.paper6_specs(apps, profiles, seed, smoke)
    elif workload == "sim-scaleout":
        specs = workloads.scaleout_specs(apps, profiles, seed, smoke)
    else:
        specs, disturbance_end = workloads.overload_specs(
            apps, profiles, seed, smoke)

    __, warm_stats = sim_pass(specs, outcome, disturbance_end)
    if None in warm_stats:
        return outcome
    for spec, stats in zip(specs, warm_stats):
        for law in sanity_failures(spec, stats):
            outcome.fail(f"{spec.config.name}: {law}")
    outcome.extra["stats_digest"] = digest(warm_stats)
    outcome.extra["points"] = [
        {"configuration": spec.config.name, "clients": spec.clients,
         "throughput_ipm": stats["point"]["throughput_ipm"],
         "kernel_events": stats["point"]["kernel_events"]}
        for spec, stats in zip(specs, warm_stats)]
    add_model_metrics(outcome, specs, warm_stats)
    interactions = outcome.samples["workload.interactions"][0]
    events = outcome.samples["sim.events"][0]
    if workload == "sim-paper6":
        outcome.add("paper_dev_pct", 100.0 * fmean(
            abs(stats["point"]["throughput_ipm"] - paper) / paper
            for stats, (*__, paper) in zip(warm_stats,
                                           workloads.PAPER6_POINTS)))

    def check_repeats(stats, what: str) -> None:
        # In-process determinism: the same spec must give the same
        # simulated statistics, field for field.
        for spec, first, again in zip(specs, warm_stats, stats):
            if first != again:
                outcome.fail(f"{spec.config.name}: {what} differs from "
                             f"the warm-up pass")

    timed = TimedPasses(args["seconds"])
    while timed.wanted():
        walls, stats = sim_pass(specs, outcome, disturbance_end)
        timed.passes.append(walls)
        check_repeats(stats, f"pass {len(timed.passes)}")
        outcome.add("run_wall_s", sum(walls))
        outcome.add("sim_interactions_per_s", interactions / sum(walls))
        outcome.add("sim.events_per_s", events / sum(walls))
    outcome.extra["unit_wall_s"] = timed.passes
    run_wall = timed.steady()
    outcome.set("run_wall_s", run_wall)
    outcome.set("sim_interactions_per_s", interactions / run_wall)
    outcome.set("sim.events_per_s", events / run_wall)
    outcome.add("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if args["trace"]:
        with Sampler(args["package_root"]) as sampler:
            walls, stats = sim_pass(specs, outcome, disturbance_end)
        check_repeats(stats, "the sampled pass")
        add_sampled_shares(outcome, sampler, sum(walls))
        trace_sim_extras(outcome, apps, profiles)
    if workload == "sim-paper6":
        loaded = sorted(m for m in sys.modules
                        if m.startswith(INTERPOSER_PACKAGES))
        if loaded:
            outcome.fail(f"paper configurations imported {loaded}")
    return outcome


# -- functional pages ---------------------------------------------------------

def build_func_site(recorder: SpanRecorder):
    """Private, freshly built databases with all three stacks deployed.

    Any database-builder keyword makes ``build_app`` bypass its
    per-process cache and build a new instance; ``tiny=False`` is the
    default scale.
    """
    from repro.apps import build_app

    apps, tiers = {}, {}
    for name in ("bookstore", "auction"):
        with recorder.span("apps.build_app", name):
            app = apps[name] = build_app(name, tiny=False)
            for arch in workloads.FUNC_ARCHS:
                tiers[name, arch] = app.deploy(arch)
    return apps, tiers


def func_pass(streams, outcome: Outcome, recorder=None, keep_traces=None):
    """Rebuild the site (untimed), then serve every stream (timed).

    Returns wall seconds per stream, every page's latency, and the
    observable results: statuses in order, reply bytes, row counts.
    With a ``recorder`` every page gets a span and every statement a
    leaf under it; ``keep_traces`` collects interaction traces.
    """
    apps, tiers = build_func_site(SpanRecorder())
    handlers = {}
    for key, tier in tiers.items():
        parts = tier if key[1] == "ejb" else (tier,)   # (presentation, container)
        handlers[key] = parts[0].handle
        if recorder is not None:
            for part in parts:
                install_timing_driver(part, recorder)
    walls, latencies, statuses = [], [], []
    reply_bytes = 0
    request_id = 0
    collect_garbage()
    for __, app_name, arch, requests in streams:
        handle = handlers[app_name, arch]
        stream_start = perf_counter()
        for name, request in requests:
            outcome.attempted += 1
            request_id += 1
            start = perf_counter()
            try:
                if recorder is None:
                    response, trace = handle(request)
                else:
                    with recorder.span(f"middleware.{arch}", request_id):
                        response, trace = handle(request)
            except Exception as exc:   # a failed page is a failed operation
                outcome.fail(f"{app_name}/{arch}/{name}: "
                             f"{type(exc).__name__}: {exc}")
                statuses.append(-1)
                continue
            latencies.append(perf_counter() - start)
            statuses.append(response.status)
            size = len(response.body)
            reply_bytes += size
            if response.status >= 500 or size == 0:
                outcome.fail(f"{app_name}/{arch}/{name}: status "
                             f"{response.status}, {size} bytes")
            if keep_traces is not None \
                    and request_id % KEEP_EVERY_NTH_TRACE == 0:
                keep_traces.append((app_name, trace))
        walls.append(perf_counter() - stream_start)
    rows = {app_name: {table: len(rows) for table, rows
                       in app.database.tables.items()}
            for app_name, app in apps.items()}
    return walls, latencies, {"statuses": statuses,
                              "reply_bytes": reply_bytes, "rows": rows}


def percentile(ordered: list, fraction: float) -> float:
    """Nearest rank on a sorted list."""
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def run_func(args: dict) -> Outcome:
    recorder = SpanRecorder()
    apps, __ = build_func_site(recorder)
    outcome = Outcome(args, recorder, perf_counter() - _PROCESS_START)
    outcome.add("apps.build_s", recorder.duration("apps.build_app"))
    if args["setup_only"]:
        return outcome

    streams = workloads.page_streams(apps, args["seed"], args["smoke"])
    units = {phase: [i for i, stream in enumerate(streams)
                     if stream[0] == phase] for phase in ("read", "write")}
    pages = {phase: sum(len(streams[i][3]) for i in indices)
             for phase, indices in units.items()}
    __, __, warm = func_pass(streams, outcome)
    outcome.extra["stats_digest"] = digest(warm)
    outcome.extra["statuses"] = {
        str(status): count
        for status, count in sorted(Counter(warm["statuses"]).items())}

    timed = TimedPasses(args["seconds"])
    all_latencies = []
    while timed.wanted():
        walls, latencies, observed = func_pass(streams, outcome)
        timed.passes.append(walls)
        if observed != warm:
            outcome.fail(f"pass {len(timed.passes)} differs from the "
                         f"warm-up pass")
        all_latencies.extend(latencies)
        outcome.add("run_wall_s", sum(walls))
        for phase, indices in units.items():
            outcome.add(f"{phase}_pages_per_s",
                        pages[phase] / sum(walls[i] for i in indices))
    outcome.extra["unit_wall_s"] = timed.passes
    outcome.set("run_wall_s", timed.steady())
    for phase, indices in units.items():
        outcome.set(f"{phase}_pages_per_s",
                    pages[phase] / timed.steady(indices))
    all_latencies.sort()
    outcome.add("page_p50_ms", 1e3 * percentile(all_latencies, 0.50))
    outcome.add("page_p99_ms", 1e3 * percentile(all_latencies, 0.99))
    outcome.extra["latency_samples"] = len(all_latencies)
    outcome.add("peak_rss_mb",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if args["trace"]:
        trace_func(outcome, apps, streams, warm)
    return outcome


def trace_func(outcome: Outcome, apps, streams, warm: dict) -> None:
    """The traced pass: sampled shares, page and statement spans, and
    the isolated rates this workload explains."""
    recorder = outcome.recorder
    budget = outcome.args["rate_budget_s"]
    traces: list = []
    with Sampler(outcome.args["package_root"]) as sampler:
        walls, __, observed = func_pass(streams, outcome, recorder, traces)
    if observed != warm:
        outcome.fail("the traced pass changed the observable results")
    add_sampled_shares(outcome, sampler, sum(walls))

    # One middleware.<arch> span per page, one db.execute leaf per
    # statement underneath it.
    statements = recorder.indices("db.execute")
    busy = recorder.duration("db.execute")
    self_s = {arch: recorder.self_time(f"middleware.{arch}")
              for arch in workloads.FUNC_ARCHS}
    page_count = {arch: len(recorder.indices(f"middleware.{arch}"))
                  for arch in workloads.FUNC_ARCHS}
    ejb_pages = set(recorder.indices("middleware.ejb"))
    add = outcome.add
    add("middleware.pages", len(warm["statuses"]))
    add("middleware.self_s", sum(self_s.values()))
    add("middleware.php_us_per_page", 1e6 * self_s["php"] / page_count["php"])
    add("middleware.servlet_us_per_page",
        1e6 * self_s["servlet_sync"] / page_count["servlet_sync"])
    add("middleware.ejb_us_per_page", 1e6 * self_s["ejb"] / page_count["ejb"])
    add("db.statements", len(statements))
    add("db.busy_s", busy)
    add("db.statements_per_s", len(statements) / busy)
    add("db.us_per_statement", 1e6 * busy / len(statements))
    add("db.ejb_statements_per_page",
        sum(1 for i in statements if recorder.parents[i] in ejb_pages)
        / len(ejb_pages))
    add("apps.rejected_4xx",
        sum(1 for status in warm["statuses"] if 400 <= status < 500))
    add("web.reply_bytes", warm["reply_bytes"])

    from repro.harness.profiles import compile_trace
    stores = {name: app.static_store() for name, app in apps.items()}

    def compile_all() -> int:
        for app_name, trace in traces:
            compile_trace(trace, WIRE_OVERHEAD_BYTES, stores[app_name])
        return len(traces)
    add("harness.compile_trace_per_s", layers.rate(compile_all, budget))
    for name, value in layers.db_rates(budget).items():
        add(name, value)


def main(argv) -> int:
    args = json.loads(argv[1])
    run = run_func if args["workload"] == "func-pages" else run_sim
    outcome = run(args)
    result = outcome.as_dict()
    if args.get("spans_out") and not args["setup_only"]:
        os.makedirs(os.path.dirname(args["spans_out"]), exist_ok=True)
        with open(args["spans_out"], "w") as fh:
            json.dump({"workload": args["workload"],
                       "fields": ["name", "start", "end", "parent",
                                  "request_id"],
                       "spans": outcome.recorder.rows()}, fh)
        result["spans_file"] = args["spans_out"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
