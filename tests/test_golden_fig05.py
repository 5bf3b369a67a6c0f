"""Golden regression test: reduced fig05 points, batched slicing on.

Three representative shopping-mix points (PHP, servlet, and EJB
flavors) run at a tenth of 300/300/5 s phases and are compared
field-for-field against ``tests/golden/fig05_reduced.json``.  Any change to the kernel, the CPU
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
    from repro.harness.experiment import Phases, point_spec, run_experiment
    from repro.topology.configs import configuration_by_name

    out = []
    for name, clients in POINTS:
        spec = point_spec("bookstore", "shopping", configuration_by_name(name),
                          1, Phases(300.0, 300.0, 5.0))
        point = run_experiment(replace(spec, clients=clients).scaled(0.1))
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
