"""Golden regression test: reduced fig05 points, batched slicing on.

Three representative bench points (PHP, servlet, and EJB flavors) run at
a tenth of the bench phases and are compared field-for-field against
``tests/golden/fig05_reduced.json``.  Any change to the kernel, the CPU
scheduler, or the simulated site that shifts even one float bit in the
throughput/latency reports fails here -- this is the cheap in-tree proxy
for the full six-configuration bit-identity gate the PR was landed
under.

Regenerate (only when an intentional behavior change lands)::

    PYTHONPATH=src python tests/test_golden_fig05.py
"""

import json
import os
from dataclasses import asdict, replace

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fig05_reduced.json")

# (configuration name, client count) -- one point per middleware flavor.
POINTS = [("WsPhp-DB", 300), ("WsServlet-DB", 300),
          ("Ws-Servlet-EJB-DB", 100)]


def _run_points():
    from repro.experiments.registry import figure_spec
    from repro.harness.experiment import run_experiment
    from repro.harness.perf import build_bench_specs

    specs, grids = build_bench_specs(figure_spec("fig05"))
    out = []
    for name, clients in POINTS:
        assert clients in grids[name]
        point = run_experiment(
            replace(specs[name], clients=clients).scaled(0.1))
        out.append({"config": name, "clients": clients,
                    "point": asdict(point)})
    return out


def test_reduced_fig05_matches_golden():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    got = json.loads(json.dumps(_run_points()))   # exact float round-trip
    assert [e["config"] for e in got] == [e["config"] for e in golden]
    for g, e in zip(got, golden):
        assert g == e, (f"{g['config']}@{g['clients']} diverged from "
                        f"golden (regenerate only for intentional "
                        f"behavior changes)")


def _regenerate():
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(_run_points(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
