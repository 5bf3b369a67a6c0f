#!/usr/bin/env python3
"""Alternating-pair A/B of two checkouts under the benchmark of record.

    python3 benchmarks/ab.py PARENT_TREE CHANGE_TREE --pairs 10
    python3 benchmarks/ab.py . . --smoke --pairs 1 --workload sim-paper6

Each pair runs each tree's *own* ``benchmarks/suite/run.py`` once; every
second pair runs the change first.  Per workload and end-to-end metric
of ``BENCHMARK.json``: both medians with their quartiles, in how many
pairs the change read better, and whether the medians are further apart
than the parent's own inter-quartile distance -- a gain is claimed only
when that holds and the change won at least nine tenths of the pairs.
Exits 1 when a ``stats_digest`` or ``ops_failed`` differs between runs,
or when on any workload the change's median ``peak_rss_mb`` is worse
than the parent's by more than that metric's ``bound`` in
``BENCHMARK.json``: resident memory repeats to about 1 % from run to
run, so even two smoke pairs can hold that gate, while times cannot.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CATALOGUE = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_tree(tree: Path, out: Path, options) -> dict:
    """One run of ``tree``'s own suite; its result file's workloads."""
    command = [sys.executable, str(tree / "benchmarks" / "suite" / "run.py"),
               "--out", str(out), "--seed", str(options.seed)]
    if options.workload:
        command += ["--workload", options.workload]
    if options.smoke:
        command.append("--smoke")
    # Exit code 1 means failed operations: the result file still says
    # how many, and they are compared below.
    done = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise SystemExit(f"{command} exited {done.returncode}, no result")
    return json.loads(out.read_text())["workloads"]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    options = parser.parse_args(argv)
    trees = {"parent": options.parent.resolve(),
             "change": options.change.resolve()}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(options.pairs):
            for side in sorted(trees, reverse=pair % 2 == 0):
                runs[side].append(run_tree(
                    trees[side], Path(tmp) / f"{side}-{pair}.json", options))
                print(f"pair {pair + 1}/{options.pairs}: {side} done",
                      file=sys.stderr)

    metrics = json.loads(CATALOGUE.read_text())["end_to_end"]
    passed = True
    for workload in runs["parent"][0]:
        print(f"\n== {workload} (seed {options.seed}, {options.pairs} pairs)")
        for metric in metrics:
            a, b = ([run[workload]["metrics"][metric["name"]]["value"]
                     for run in runs[side]] for side in ("parent", "change"))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            apart = "further" if abs(bm - am) > a3 - a1 else "NOT further"
            print(f"   {metric['name']:<12} parent {am:.4g} [{a1:.4g} .. "
                  f"{a3:.4g}]  change {bm:.4g} [{b1:.4g} .. {b3:.4g}] "
                  f"{metric['unit']}  ratio {bm / am:.3f}  change better in "
                  f"{wins}/{len(a)} pairs; medians {apart} apart than the "
                  f"parent's IQR ({a3 - a1:.3g})")
            if metric["name"] == "peak_rss_mb" and \
                    sign * (bm - am) > metric["bound"] * am:
                print(f"   peak_rss_mb: WORSE than the parent by more than "
                      f"the bound ({metric['bound']:.0%})")
                passed = False
        for fact in ("stats_digest", "ops_failed"):
            seen = {str(run[workload].get(fact))
                    for side in runs.values() for run in side}
            print(f"   {fact}: " + ("the same in every run" if len(seen) == 1
                                    else f"DIFFERS: {sorted(seen)}"))
            passed = passed and len(seen) == 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
