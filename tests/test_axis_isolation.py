"""A disabled axis is invisible: not constructed, not even imported.

Every opt-in axis has a trivial spelling -- ``(1+0)`` replicas,
``Cache{0}``, ``DB[1]``, and simply no overload/degradation spec -- that
must parse to the paper configuration *object itself*, run the exact
paper point, and never import the axis' package.  Import isolation
needs a fresh interpreter (this test session has imported everything),
so one subprocess runs the point and reports; the parametrized test
reads its report per axis.  Also checked there: a real cluster imports
``repro.cluster`` and no other axis, and the legacy trivial
``clustered(base)`` -- which *does* build a ``ClusteredSite`` -- stays
field-for-field identical to the paper site.
"""

import json
import os
import subprocess
import sys

import pytest

#: axis -> (trivial spelling of the paper configuration, its package)
AXES = {
    "cluster": ("Ws-Servlet-DB(1+0)", "repro.cluster"),
    "cache": ("Ws-Servlet-Cache{0}-DB", "repro.cache"),
    "shard": ("Ws-Servlet-DB[1]", "repro.shard"),
    "overload": ("Ws-Servlet-DB", "repro.overload"),   # no spec at all
}

SCRIPT = r"""
import json, sys
from dataclasses import asdict
from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.profiles import profile_application
from repro.topology.spec import parse_topology, topology

AXES = json.loads(sys.argv[1])
app = BookstoreApp(build_bookstore_database(scale=0.002, tiny=True))
profile = profile_application(app, app.deploy_servlet(), "servlet",
                              repetitions=2)


def point(config):
    return asdict(run_experiment(ExperimentSpec(
        config=config, profile=profile, mix=app.mix("shopping"),
        clients=6, ramp_up=10.0, measure=20.0, ramp_down=2.0, seed=1)))


def loaded(package):
    return sorted(m for m in sys.modules if m.startswith(package))


base = parse_topology("Ws-Servlet-DB")
paper = point(base)
report = {"repeatable": point(base) == paper, "axes": {}}
for axis, (name, package) in AXES.items():
    report["axes"][axis] = {
        "is_paper_object": parse_topology(name) is base,
        "imported": loaded(package)}

point(topology("Ws-Servlet-DB", web=2, db_replicas=1))
report["cluster_run_imported"] = {
    axis: loaded(package) for axis, (__, package) in AXES.items()}

from repro.topology.spec import clustered
report["legacy_trivial_cluster_identical"] = point(clustered(base)) == paper
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(AXES)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("axis", sorted(AXES))
def test_disabled_axis_is_invisible(report, axis):
    name, package = AXES[axis]
    mine = report["axes"][axis]
    assert mine["is_paper_object"], \
        f"{name} is not the paper configuration object"
    assert mine["imported"] == [], \
        f"paper point imported {mine['imported']}"
    assert report["repeatable"], "paper point not bit-identical on rerun"
    if axis == "cluster":
        assert report["cluster_run_imported"]["cluster"], \
            "a clustered run should load repro.cluster"
        assert report["legacy_trivial_cluster_identical"], \
            "trivial clustered(base) diverged from the paper site"
    else:
        assert report["cluster_run_imported"][axis] == [], \
            f"a plain cluster imported {package}"
