#!/usr/bin/env python3
"""Apply the suite's own bounds to two result files.

    python benchmarks/suite/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of runs of
one commit), ``B`` the change.  One row per (bounded metric, workload):
both medians, the ratio B/A, and a verdict --

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the spread of either side's samples (quartile distance
                over median) is wider than the bound, so the medians
                cannot settle it -- unless every sample of B reads
                better than every sample of A, which is ``ok``.

Differences in ``stats_digest``, in ``ops_failed`` and in any metric that
repeats exactly (simulated statistics, statement counts) are flagged:
a change that claims speed only must not move them.  Exits 1 on a
regression or when B fails operations that A did not.
"""

from __future__ import annotations

import json
import statistics
import sys

import catalog

SAME_BOX = ("python_version", "platform", "cpu_count", "nproc", "seed",
            "seconds", "smoke", "PYTHONHASHSEED")


def spread(measured: dict) -> float:
    """Quartile distance of the samples as a share of their median."""
    samples = measured["samples"]
    if len(samples) < 2 or not measured["value"]:
        return 0.0
    q1, __, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(measured["value"])


def verdict(metric: catalog.Metric, a: dict, b: dict) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"])
    if metric.bound_abs is not None:
        return "regressed" if worse_by > metric.bound_abs else "ok"
    if max(spread(a), spread(b)) > metric.bound:
        b_wins = all(sign * (y - x) < 0
                     for x in a["samples"] for y in b["samples"])
        return "ok" if b_wins else "unresolved"
    return "regressed" if worse_by > metric.bound * abs(a["value"]) else "ok"


def compare(a: dict, b: dict) -> int:
    """Print the comparison; return the number of blocking findings."""
    blocking = 0
    for key in SAME_BOX:
        if a["environment"].get(key) != b["environment"].get(key):
            print(f"NOT THE SAME CONDITIONS: {key} is "
                  f"{a['environment'].get(key)!r} in A and "
                  f"{b['environment'].get(key)!r} in B")
    print(f"A: commit {a['environment']['git_commit'][:12]}  "
          f"load {a['environment']['load_average']}")
    print(f"B: commit {b['environment']['git_commit'][:12]}  "
          f"load {b['environment']['load_average']}")
    header = (f"{'workload':<13} {'metric':<20} {'A median':>12} "
              f"{'B median':>12} {'B/A':>7} {'bound':>7}  verdict")
    print(header)
    print("-" * len(header))
    for name in catalog.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric in catalog.METRICS:
            ma, mb = wa["metrics"].get(metric.name), \
                wb["metrics"].get(metric.name)
            if ma is None or mb is None:
                continue
            if metric.kind != "per_layer":
                result = verdict(metric, ma, mb)
                blocking += result == "regressed"
                bound = (f"+{metric.bound_abs:g}" if metric.bound is None
                         else f"{100 * metric.bound:g}%")
                ratio = mb["value"] / ma["value"] if ma["value"] else 0.0
                print(f"{name:<13} {metric.name:<20} {ma['value']:>12.6g} "
                      f"{mb['value']:>12.6g} {ratio:>7.3f} {bound:>7}  "
                      f"{result}")
            if metric.exact and ma["value"] != mb["value"]:
                print(f"{name:<13} {metric.name} MOVED: {ma['value']!r} -> "
                      f"{mb['value']!r} (repeats exactly on one commit)")
        if wa.get("stats_digest") != wb.get("stats_digest"):
            print(f"{name:<13} stats_digest DIFFERS: the model's outputs "
                  f"changed, not only its speed")
        if wa["ops_failed"] != wb["ops_failed"]:
            print(f"{name:<13} ops_failed DIFFERS: {wa['ops_failed']} -> "
                  f"{wb['ops_failed']}")
            blocking += wb["ops_failed"] > wa["ops_failed"]
    return blocking


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        blocking = compare(json.load(fa), json.load(fb))
    print(f"\n{blocking} blocking finding(s)")
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
