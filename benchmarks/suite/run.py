#!/usr/bin/env python3
"""The benchmark of record: four workloads, end-to-end and per-layer
metrics for the simulator and its functional twin.

    python benchmarks/suite/run.py                      # all four workloads
    python benchmarks/suite/run.py --workload func-pages --trace
    python benchmarks/suite/run.py --smoke --trace      # < 30 s, proves it runs

Each workload runs in its own fresh subprocess, one after the other
(``worker.py``; ``PYTHONHASHSEED=0``, ``PYTHONPATH=src``).  Every metric
is printed by name with its unit, outputs are checked, failed operations
are counted, and everything -- environment, seed, raw per-pass samples --
goes to a result file that ``compare.py`` reads.  The exit code is 1 when
an output check failed.

With ``--workload`` the last line of standard output is the one-line JSON
result ``BENCHMARK.json`` describes: its ``end_to_end`` metrics, or with
``--trace 1`` its ``per_layer`` metrics (those the workload does not
exercise read 0 there; the table and the result file leave them out).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
PACKAGE_ROOT = ROOT / "src" / "repro"
SETUP_SAMPLES = 3              # cold set-ups per untraced run; median reported
RATE_BUDGET_S = 0.3            # host seconds per isolated layer loop
SMOKE_RATE_BUDGET_S = 0.02
WORKER_TIMEOUT_S = 170


def run_worker(args: dict) -> dict:
    """One workload (or only its set-up) in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "worker.py"), json.dumps(args)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {args['workload']} exited with "
                           f"code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(samples: list, value=None) -> dict:
    """The value -- the samples' median unless the workload states it --
    with the spread a reader needs to trust it."""
    ordered = sorted(samples)
    summary = {"value": statistics.median(ordered) if value is None else value,
               "n": len(ordered), "min": ordered[0], "max": ordered[-1],
               "samples": samples}
    if len(ordered) >= 2:
        q1, __, q3 = statistics.quantiles(ordered, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def run_workload(name: str, options) -> dict:
    args = {"workload": name, "seed": options.seed,
            "seconds": 0 if options.smoke else options.seconds,
            "trace": bool(options.trace), "smoke": options.smoke,
            "setup_only": False, "package_root": str(PACKAGE_ROOT),
            "rate_budget_s": (SMOKE_RATE_BUDGET_S if options.smoke
                              else RATE_BUDGET_S)}
    # The traced run reports no set-up time, so it sets up once.
    extra_setups = 0 if options.trace or options.smoke else SETUP_SAMPLES - 1
    setups = [run_worker({**args, "setup_only": True})["samples"]["setup_s"][0]
              for __ in range(extra_setups)]
    if options.trace:
        args["spans_out"] = str(options.out.with_name(
            f"{options.out.stem}.{name}.spans.json"))
    result = run_worker(args)
    result["samples"]["setup_s"] = setups + result["samples"]["setup_s"]
    values = result.pop("values")
    metrics = {}
    for metric in catalog.METRICS:
        samples = result["samples"].pop(metric.name, None)
        if samples is not None:
            metrics[metric.name] = {
                "unit": metric.unit,
                **summarize(samples, values.get(metric.name))}
    if result.pop("samples"):
        raise RuntimeError(f"{name} reported metrics the catalog lacks")
    result["metrics"] = metrics
    return result


def git_commit() -> str:
    # Only in a checkout that is itself a repository: git would search
    # the parent directories otherwise.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(options) -> dict:
    return {
        "python_version": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "load_average": list(os.getloadavg()),
        "git_commit": git_commit(),
        "seed": options.seed,
        "PYTHONHASHSEED": "0",
        "seconds": options.seconds,
        "smoke": options.smoke,
        "trace": bool(options.trace),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def print_workload(name: str, result: dict, smoke: bool) -> None:
    label = "  [smoke: numbers are not comparable]" if smoke else ""
    print(f"\n== {name}{label}")
    print(f"   ops_attempted {result['ops_attempted']}  "
          f"ops_failed {result['ops_failed']}  "
          f"stats_digest {result.get('stats_digest', '-')[:16]}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    if "sampler" in result:
        sampler = result["sampler"]
        print(f"   sampler: {sampler['samples']} samples over a "
              f"{sampler['traced_pass_s']:.2f} s pass (asked for one per "
              f"{1e3 * sampler['asked_interval_s']:g} ms of CPU time)")
    for metric_name, m in result["metrics"].items():
        spread = ""
        if m["n"] > 1:
            spread = (f"  [q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  "
                      f"min {m['min']:.6g}  max {m['max']:.6g}  n {m['n']}]")
        print(f"   {metric_name:<38} {m['value']:>14.6g} {m['unit']:<10}"
              f"{spread}")


def contract_line(result: dict, trace: bool) -> str:
    metrics = {}
    for name in catalog.contract_names(trace):
        metric = catalog.BY_NAME[name]
        measured = result["metrics"].get(name)
        metrics[name] = {"value": measured["value"] if measured else 0.0,
                         "unit": metric.unit}
    return json.dumps({"correct": result["ops_failed"] == 0,
                       "attempted": result["ops_attempted"],
                       "failed": result["ops_failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="run one workload and end with its JSON line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=catalog.RUN_SECONDS,
                        help="host seconds of timed passes per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="add the traced pass, layer rates and overheads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; numbers are not comparable")
    parser.add_argument("--out", type=Path,
                        default=SUITE_DIR / "out" / "result.json")
    options = parser.parse_args(argv)
    if not PACKAGE_ROOT.is_dir():
        print(f"no program to measure: {PACKAGE_ROOT} is missing",
              file=sys.stderr)
        return 2

    chosen = [options.workload] if options.workload \
        else list(catalog.WORKLOADS)
    report = {"suite": "benchmarks/suite", "environment": environment(options),
              "workloads": {}}
    for name in chosen:
        result = run_workload(name, options)
        report["workloads"][name] = result
        print_workload(name, result, options.smoke)
    options.out.parent.mkdir(parents=True, exist_ok=True)
    options.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nresult file: {options.out}")
    if options.workload:
        print(contract_line(report["workloads"][options.workload],
                            bool(options.trace)))
    failed = sum(r["ops_failed"] for r in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
