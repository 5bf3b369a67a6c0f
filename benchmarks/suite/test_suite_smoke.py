"""The suite runs, and says what ``BENCHMARK.json`` says it says.

Outside ``testpaths``, so tier-1 time is unchanged:

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import catalog  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_suite(*arguments):
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)


def test_benchmark_json_is_the_catalog():
    assert BENCHMARK == catalog.benchmark_json()
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_every_workload_reports_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = run_suite("--trace", "--out", str(out))
    assert done.returncode == 0, done.stdout
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"]
                                         for w in BENCHMARK["workloads"]]
    assert report["environment"]["smoke"] is True
    for name, workload in report["workloads"].items():
        assert workload["ops_failed"] == 0, workload["failures"]
        assert workload["ops_attempted"] >= 1
        assert len(workload["stats_digest"]) == 64
        for metric in catalog.METRICS:
            if name in metric.workloads:
                value = workload["metrics"][metric.name]["value"]
                assert math.isfinite(value), (name, metric.name)
                assert f" {metric.name} " in done.stdout
        spans = json.loads(Path(workload["spans_file"]).read_text())
        assert spans["spans"] and all(len(row) == 5 for row in spans["spans"])
    # the simulator-free workload and the interposer-free one are isolated
    shares = {name: workload["metrics"]
              for name, workload in report["workloads"].items()}
    assert shares["func-pages"]["sim.self_share"]["value"] == 0
    for layer in ("cluster", "cache", "shard", "overload"):
        assert shares["sim-paper6"][f"{layer}.self_share"]["value"] == 0


def test_result_line_follows_the_contract(tmp_path):
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_suite("--workload", "func-pages", "--seed", "7",
                         "--seconds", "1", "--trace", trace,
                         "--out", str(tmp_path / "one.json"))
        assert done.returncode == 0, done.stdout
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in BENCHMARK[key]]
        for metric in BENCHMARK[key]:
            reported = line["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert math.isfinite(reported["value"])
            if key == "end_to_end":
                assert reported["value"] > 0
