"""The benchmark's vocabulary: workloads, metrics, units, bounds.

One table, read by everything else in the suite: ``run.py`` filters its
result line through it, ``compare.py`` takes its bounds from it, the
README tables are written from it, and ``test_suite_smoke.py`` checks
that the committed ``BENCHMARK.json`` says exactly what
:func:`benchmark_json` derives from it.

Three kinds of metric:

``end_to_end``  what someone running this repo waits for, defined on
                *every* workload and never 0 -- these are the
                ``end_to_end`` list of ``BENCHMARK.json``.
``workload``    end-to-end metrics that exist on some workloads only
                (simulated interactions/s on ``sim-*``, pages/s and page
                latency on ``func-pages``, deviation from the paper on
                ``sim-paper6``).  The suite bounds them like the first
                kind (``compare.py``, between runs of equal seed), but
                ``BENCHMARK.json`` must report every end-to-end metric
                on every workload, so it lists them under ``per_layer``.
``per_layer``   one layer's work, time or rate; no bound.

``moves`` names the end-to-end metric a layer metric should move, and on
which workload -- written down before anything was measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

RUN_SECONDS = 10

SIM = ("sim-paper6", "sim-scaleout", "sim-overload")
ALL = SIM + ("func-pages",)

WORKLOADS: Dict[str, str] = {
    "sim-paper6": (
        "closed-loop DES of the six paper configurations at peak clients: "
        "sim+machine do ~80% of the work, interposers none - the control "
        "for kernel and CPU-model changes"),
    "sim-scaleout": (
        "closed-loop DES on replicated, cached and sharded topologies: "
        "balancer, log shipping, LRU and 2PC carry ~13% of host time "
        "here and none on sim-paper6"),
    "sim-overload": (
        "open-loop DES past the knee with degradation, SLO windows and a "
        "replica crash: cancel-heavy kernel use (deadlines, abandonment) "
        "that closed-loop steady state never exercises"),
    "func-pages": (
        "the functional twin with no simulator: real pages through "
        "PHP/servlet/EJB over the real SQL engine, read and write phases; "
        "the same code every sim set-up pays as profile capture"),
}


PAPER6 = ("sim-paper6",)
SCALEOUT = ("sim-scaleout",)
OVERLOAD = ("sim-overload",)
FUNC = ("func-pages",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                        # "lower" | "higher"
    kind: str = "per_layer"            # "end_to_end" | "workload" | "per_layer"
    bound: Optional[float] = None      # share of the parent's median
    bound_abs: Optional[float] = None  # absolute, in the metric's unit
    workloads: Tuple[str, ...] = ALL   # where the suite reports it
    moves: str = ""
    exact: bool = False                # repeats exactly on one commit and seed


SAME = "must not move under a speed-only change (feeds stats_digest)"


def _model(name, unit, better, workloads, note="") -> Metric:
    """A simulated-time statistic of the returned ThroughputPoints."""
    return Metric(name, unit, better, workloads=workloads, exact=True,
                  moves=SAME + note)


def _share(layer: str, moves: str) -> Metric:
    """Sampled host self time of one ``src/repro`` package."""
    return Metric(f"{layer}.self_share", "share", "lower", moves=moves)


METRICS: Tuple[Metric, ...] = (
    # -- end to end, every workload ------------------------------------------
    Metric("setup_s", "s", "lower", "end_to_end", bound=0.15,
           moves="cold subprocess: import + build apps + profile capture "
                 "(func-pages: build databases + deploy)"),
    Metric("run_wall_s", "s", "lower", "end_to_end", bound=0.12,
           moves="host wall time of one pass over the fixed inputs"),
    Metric("peak_rss_mb", "MB", "lower", "end_to_end", bound=0.05,
           moves="ru_maxrss of the workload subprocess"),
    # -- end to end, some workloads only -------------------------------------
    Metric("sim_interactions_per_s", "1/s", "higher", "workload", bound=0.05,
           workloads=SIM,
           moves="interactions completed in the measurement windows per "
                 "host second; not events/s, because event fusion may "
                 "change the event count"),
    Metric("paper_dev_pct", "%", "lower", "workload", bound_abs=0.5,
           workloads=PAPER6, exact=True,
           moves="mean |simulated ipm - paper peak| / paper peak; simulated "
                 "time; phases are bench-length, not paper-length"),
    Metric("read_pages_per_s", "pages/s", "higher", "workload", bound=0.05,
           workloads=FUNC, moves="read phase (browsing mixes)"),
    Metric("write_pages_per_s", "pages/s", "higher", "workload", bound=0.05,
           workloads=FUNC, moves="write phase (ordering + bidding mixes)"),
    Metric("page_p50_ms", "ms", "lower", "workload", bound=0.10,
           workloads=FUNC, moves="all pages of the timed passes"),
    Metric("page_p99_ms", "ms", "lower", "workload", bound=0.10,
           workloads=FUNC, moves="all pages of the timed passes"),
    # -- in-stack host self time (sampled, traced pass) ----------------------
    _share("sim", "run_wall_s, sim_interactions_per_s on sim-* "
                  "(~0.55 of sim-paper6)"),
    _share("machine", "run_wall_s, sim_interactions_per_s on sim-* "
                      "(~0.3 of sim-paper6)"),
    _share("net", "run_wall_s on sim-*"),
    _share("workload", "run_wall_s on sim-*"),
    _share("topology", "run_wall_s on sim-*"),
    _share("cluster", "run_wall_s on sim-scaleout, sim-overload; "
                      "0 on sim-paper6"),
    _share("cache", "run_wall_s on sim-scaleout; 0 on sim-paper6"),
    _share("shard", "run_wall_s on sim-scaleout; 0 on sim-paper6"),
    _share("overload", "run_wall_s on sim-overload; 0 on sim-paper6"),
    _share("faults", "run_wall_s on sim-overload"),
    _share("metrics", "run_wall_s on sim-overload"),
    _share("obs", "none: 0 everywhere with tracing off"),
    _share("harness", "run_wall_s on sim-*"),
    _share("db", "read_/write_pages_per_s, page_p99_ms on func-pages; "
                 "setup_s on sim-*"),
    _share("middleware", "read_/write_pages_per_s, page_p50_ms on "
                         "func-pages; setup_s on sim-*"),
    _share("web", "read_/write_pages_per_s on func-pages"),
    _share("apps", "read_/write_pages_per_s on func-pages; setup_s"),
    # -- kernel + model counts (simulated time) ------------------------------
    _model("sim.events", "count", "lower", SIM,
           "; moving with run_wall_s fixed: events got cheaper or fewer"),
    Metric("sim.events_per_s", "events/s", "higher", workloads=SIM,
           moves="run_wall_s on sim-* (host time per event)"),
    _model("sim.canonical_events", "count", "lower", PAPER6,
           "; WsServlet-DB@300 at (300,300,5), the BENCH_perf.json point: "
           "1,433,245 at seed 42"),
    Metric("sim.canonical_events_per_s", "events/s", "higher",
           workloads=PAPER6,
           moves="continues the 875,871 events/s trajectory of "
                 "BENCH_perf.json; run_wall_s on sim-paper6"),
    _model("workload.interactions", "count", "higher", SIM),
    _model("workload.sim_ipm", "ipm", "higher", SIM,
           "; a model change moves paper_dev_pct"),
    _model("workload.sim_rt_s", "s", "lower", SIM),
    _model("machine.db_cpu_util", "share", "lower", SIM),
    _model("machine.web_cpu_util", "share", "lower", SIM),
    _model("net.web_nic_mbps", "Mb/s", "lower", SIM),
    _model("topology.db_lock_wait_s", "s", "lower", SIM),
    _model("topology.sync_lock_wait_s", "s", "lower", SIM),
    _model("cache.query_hit_rate", "share", "higher", SCALEOUT),
    _model("cache.page_hit_rate", "share", "higher", SCALEOUT),
    _model("cache.absorbed_queries", "count", "higher", SCALEOUT),
    _model("cache.evictions", "count", "lower", SCALEOUT),
    _model("shard.scatter_legs", "count", "lower", SCALEOUT),
    _model("shard.cross_shard_spans", "count", "lower", SCALEOUT),
    _model("shard.twopc_commits", "count", "higher", SCALEOUT),
    _model("shard.twopc_aborts", "count", "lower", SCALEOUT),
    _model("overload.degraded_served", "count", "lower", OVERLOAD),
    _model("overload.rejections", "count", "lower", OVERLOAD),
    _model("overload.abandoned_sessions", "count", "lower", OVERLOAD),
    _model("overload.turned_away", "count", "lower", OVERLOAD),
    _model("overload.breaker_trips", "count", "lower", OVERLOAD),
    _model("metrics.slo_windows_violating", "count", "lower", OVERLOAD),
    _model("metrics.slo_goodput_per_s", "1/s", "higher", OVERLOAD),
    _model("metrics.recovery_s", "s", "lower", OVERLOAD,
           "; -1 when the chaos point never re-settles"),
    # -- functional spans ----------------------------------------------------
    Metric("apps.build_s", "s", "lower",
           moves="setup_s (apps.build_s + harness.profile_capture_s)"),
    Metric("harness.profile_capture_s", "s", "lower", workloads=SIM,
           moves="setup_s on sim-*"),
    Metric("middleware.pages", "count", "higher", workloads=FUNC, exact=True,
           moves="fixed input size"),
    Metric("middleware.self_s", "s", "lower", workloads=FUNC,
           moves="page spans minus their db.execute children; "
                 "read_/write_pages_per_s"),
    Metric("middleware.php_us_per_page", "us/page", "lower", workloads=FUNC,
           moves="page_p50_ms"),
    Metric("middleware.servlet_us_per_page", "us/page", "lower",
           workloads=FUNC, moves="page_p50_ms"),
    Metric("middleware.ejb_us_per_page", "us/page", "lower", workloads=FUNC,
           moves="page_p99_ms"),
    Metric("db.statements", "count", "lower", workloads=FUNC, exact=True,
           moves="fixed by the inputs; CMP SQL generation changes move it"),
    Metric("db.busy_s", "s", "lower", workloads=FUNC,
           moves="read_pages_per_s, page_p99_ms (best_sellers aggregation)"),
    Metric("db.statements_per_s", "stmts/s", "higher", workloads=FUNC,
           moves="write_pages_per_s, EJB pages"),
    Metric("db.us_per_statement", "us/stmt", "lower", workloads=FUNC,
           moves="write_pages_per_s, EJB pages"),
    Metric("db.ejb_statements_per_page", "stmts/page", "lower",
           workloads=FUNC, exact=True, moves="middleware.ejb_us_per_page"),
    Metric("apps.rejected_4xx", "count", "lower", workloads=FUNC, exact=True,
           moves="application 409s, deterministic under the seed"),
    Metric("web.reply_bytes", "bytes", "lower", workloads=FUNC, exact=True,
           moves="fixed by the inputs"),
    Metric("harness.compile_trace_per_s", "1/s", "higher", workloads=FUNC,
           moves="setup_s on sim-*"),
    # -- isolated layer rates (host), each measured on the workload whose
    #    end-to-end metric it should move ------------------------------------
    Metric("sim.push_pop_per_s", "1/s", "higher", workloads=PAPER6,
           moves="run_wall_s on sim-paper6"),
    Metric("sim.resume_per_s", "1/s", "higher", workloads=PAPER6,
           moves="run_wall_s on sim-paper6"),
    Metric("sim.timeout_cancel_per_s", "1/s", "higher", workloads=OVERLOAD,
           moves="run_wall_s on sim-overload"),
    Metric("machine.cpu_execute_1_per_s", "1/s", "higher", workloads=PAPER6,
           moves="run_wall_s on sim-paper6"),
    Metric("machine.cpu_execute_4_per_s", "1/s", "higher", workloads=PAPER6,
           moves="run_wall_s on sim-paper6"),
    Metric("net.transfer_per_s", "1/s", "higher", workloads=PAPER6,
           moves="run_wall_s on sim-paper6"),
    Metric("db.prepare_miss_per_s", "1/s", "higher", workloads=FUNC,
           moves="setup_s (cold plan cache)"),
    Metric("db.point_select_per_s", "1/s", "higher", workloads=FUNC,
           moves="write_pages_per_s"),
    Metric("db.insert_per_s", "1/s", "higher", workloads=FUNC,
           moves="write_pages_per_s"),
    Metric("db.update_per_s", "1/s", "higher", workloads=FUNC,
           moves="write_pages_per_s"),
    Metric("db.aggregate_rows_per_s", "rows/s", "higher", workloads=FUNC,
           moves="read_pages_per_s"),
    Metric("cache.lru_get_set_per_s", "1/s", "higher", workloads=SCALEOUT,
           moves="run_wall_s on sim-scaleout"),
    Metric("shard.route_per_s", "1/s", "higher", workloads=SCALEOUT,
           moves="run_wall_s on sim-scaleout"),
    Metric("cluster.pick_per_s", "1/s", "higher", workloads=SCALEOUT,
           moves="run_wall_s on sim-scaleout"),
    Metric("topology.parse_per_s", "1/s", "higher", workloads=SCALEOUT,
           moves="none (reference only)"),
    Metric("analytic.mva_solve_per_s", "1/s", "higher", workloads=SCALEOUT,
           moves="none (reference only)"),
    # -- overheads -----------------------------------------------------------
    Metric("obs.trace_overhead_ratio", "ratio", "lower", workloads=PAPER6,
           moves="canonical point with ExperimentSpec(trace=True) / off; "
                 "no end-to-end metric (tracing is off there)"),
    Metric("overload.degradation_overhead_ratio", "ratio", "lower",
           workloads=OVERLOAD,
           moves="canonical point with an idle DegradationPolicy / off; "
                 "no end-to-end metric"),
    Metric("suite.sampler_overhead_ratio", "ratio", "lower",
           moves="traced pass / untraced run_wall_s; none"),
)

BY_NAME: Dict[str, Metric] = {m.name: m for m in METRICS}


def names(kind: str) -> List[str]:
    return [m.name for m in METRICS if m.kind == kind]


def contract_names(trace: bool) -> List[str]:
    """The metric names of one result line: BENCHMARK.json's
    ``per_layer`` list with ``--trace 1``, its ``end_to_end`` list
    without."""
    if trace:
        return names("workload") + names("per_layer")
    return names("end_to_end")


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must contain."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound}
                       for m in METRICS if m.kind == "end_to_end"],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in METRICS if m.kind != "end_to_end"],
    }
