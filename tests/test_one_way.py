"""There is one way to describe, run, window and ask for a point.

A source scan (no simulation) that pins the layering DESIGN.md "How a
sweep is described and run" states, so a later change cannot quietly
re-fork it: the driver says *what* to run, the harness alone knows
*how* a point is run and shipped, the CLI alone knows how it is asked
for.
"""

import ast
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: Where points are built and run.
RUNNERS = sorted([*(SRC / "harness").glob("*.py"),
                  *(SRC / "experiments").glob("*.py")])


@lru_cache(maxsize=None)
def _calls(path):
    """``(callee as written, enclosing top-level function or None)``
    for every call in a file."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inside = function
            if inside is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = child.name
            if isinstance(child, ast.Call):
                yield ast.unparse(child.func), inside
            yield from visit(child, inside)
    return list(visit(ast.parse(path.read_text()), None))


def _callers(name):
    return {(path.relative_to(SRC).as_posix(), function)
            for path in RUNNERS for callee, function in _calls(path)
            if f".{callee}".endswith(f".{name}")}


def _mentions(word):
    pattern = re.compile(rf"\b{word}\b")
    return {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
            if pattern.search(path.read_text())}


def test_one_place_builds_a_spec():
    assert _callers("ExperimentSpec") == {
        ("harness/experiment.py", "point_spec")}


@pytest.mark.parametrize("name", ["sim.run", "FaultInjector",
                                  "SloSeries", "SysstatSampler"])
def test_one_place_windows_a_run(name):
    """``sim.run(...)`` and the things started around it."""
    assert _callers(name) == {("harness/experiment.py", "measure_point")}


def test_one_window_series_and_one_runner():
    """Every point that declares an SLO records one ``SloSeries``, filed
    by the ``ClientPopulation`` base class for the closed and the open
    loop alike, and ``run_experiment`` runs both: the sampler, its
    window types and the open-loop runner twin do not exist."""
    import importlib.util

    import repro.metrics as metrics
    import repro.metrics.availability as availability
    import repro.overload as overload

    assert importlib.util.find_spec("repro.overload.runner") is None
    assert not hasattr(overload, "run_open_loop")
    for gone in ("AvailabilitySampler", "AvailabilityWindow",
                 "Availability"):
        assert not hasattr(availability, gone)
        assert not hasattr(metrics, gone)
    for path in (SRC / "overload").glob("*.py"):
        assert not [callee for callee, __ in _calls(path)
                    if re.search(r"\bslo\.record", callee)], path.name


@pytest.mark.parametrize("name", ["parallel_map", "strip_spec",
                                  "rehydrate_spec"])
def test_one_place_fans_out(name):
    assert _mentions(name) == {"harness/parallel.py"}


def test_one_place_parses_a_command_line():
    assert _mentions("argparse") == {"__main__.py"}


def test_drivers_describe_points_and_nothing_else():
    """No experiment module reaches under ``run_points``: no simulator,
    no population, no pool."""
    for path in (SRC / "experiments").glob("*.py"):
        imported = {alias.name for node in ast.walk(ast.parse(
            path.read_text())) if isinstance(node, (ast.Import,
                                                    ast.ImportFrom))
            for alias in node.names}
        assert not imported & {"multiprocessing", "Simulator",
                               "ClientPopulation", "OpenLoopPopulation"}, \
            path.name


def _functions(path):
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_way_to_take_a_lock():
    """Every RW lock is taken through ``acquire_lock`` and released
    through ``RWLock.release(mode)``; neither acquisition helper has a
    traced or per-mode twin, and the step replay has one loop."""
    resources = SRC / "sim" / "resources.py"
    primitive = re.compile(r"\.acquire_(read|write)\(")
    assert {path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py")
            if primitive.search(path.read_text())} == {"sim/resources.py"}
    assert {node.name for node in ast.parse(resources.read_text()).body
            if isinstance(node, ast.FunctionDef)} == {"safe_acquire",
                                                      "acquire_lock"}
    forks = {"safe_acquire_read", "safe_acquire_write", "traced_acquire",
             "traced_acquire_lock"}
    for path in SRC.rglob("*.py"):
        assert not {f.name for f in _functions(path)} & forks, path
        if path == resources:
            continue
        switches = [ast.unparse(node.test) for node in ast.walk(
            ast.parse(path.read_text())) if isinstance(node, ast.If)
            and re.search(r"\.release_(read|write)\(\)", ast.unparse(node))]
        assert not switches, (path, switches)

    replay, = [f for f in _functions(SRC / "topology" / "simulation.py")
               if f.name == "_replay_steps"]
    assert [ast.unparse(node.iter) for node in ast.walk(replay)
            if isinstance(node, ast.For)
            and "variant.steps" in ast.unparse(node.iter)] \
        == ["enumerate(variant.steps)"]


def test_the_forks_are_gone():
    import repro.__main__ as cli
    from repro.experiments import ext_failover, ext_slo, trace

    assert not hasattr(ext_failover, "run_failover_point")
    assert not hasattr(ext_slo, "run_slo_point")
    assert not hasattr(ext_slo, "SloPoint")
    assert not hasattr(trace, "main")
    assert "trace_args" not in cli.COMMANDS["trace"]["args"]
    for adapter in ("_faults", "_scale", "_slo", "_cache", "_shard"):
        assert not hasattr(cli, adapter)
    drivers = {name for name, row in cli.COMMANDS.items() if "driver" in row}
    assert drivers == {"faults", "scale", "slo", "cache", "shard"}
    assert all("func" not in cli.COMMANDS[name] for name in drivers)


def test_one_place_states_a_finding():
    """The paper's findings are rows of the figure registry, which
    ``figure NN`` prints and checks: no bench tree, no second grid
    table, no bulletin-board driver."""
    import importlib.util

    from repro.experiments.registry import FIGURES

    root = SRC.parent.parent
    assert sorted(path.name for path in (root / "benchmarks").iterdir()
                  if path.name != "__pycache__") == ["ab.py", "suite"]
    plugin = re.compile(r"^\s*(from|import)\s+pytest_benchmark\b", re.M)
    for tree in ("src", "tests", "benchmarks"):
        for path in (root / tree).rglob("*.py"):
            assert not plugin.search(path.read_text()), path
    for module in ("repro.harness.perf", "repro.experiments.ext_bboard"):
        assert importlib.util.find_spec(module) is None
    assert all(spec.findings for spec, __ in FIGURES.values())


#: Public names that no run reaches but tests do, each with the reason
#: it stays.
KEPT_FOR_TESTS = {
    "null_rows": "the index's NULL-key rows, compared with the reference "
                 "index in tests/test_db_storage.py",
    "rowcount": "the DB-API row count, compared with sqlite3's "
                "cursor.rowcount in tests/test_property_db.py",
}
_DEFINITION = re.compile(r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+"
                         r"([A-Za-z]\w*)", re.M)
#: Imports and ``__all__`` lists name a definition without using it.
_EXPORT = re.compile(r"^(?:from\s[^\n(]*\([^)]*\)|from\s[^\n]*|import\s[^\n]*"
                     r"|__all__\s*=\s*[\[(][^\])]*[\])])", re.M)


def test_every_public_definition_is_reached():
    """Every public ``def`` / ``class`` in ``src/repro`` is named, outside
    its own definition and outside imports and ``__all__``, somewhere a
    run starts from: ``src/repro``, ``benchmarks/``, ``examples/`` or the
    CI workflows.  Tests do not count; ``KEPT_FOR_TESTS`` lists the
    exceptions, and only names the scan would otherwise flag."""
    root = SRC.parent.parent
    words, defined = Counter(), Counter()
    for path in [*SRC.rglob("*.py"), *(root / "benchmarks").rglob("*.py"),
                 *(root / "examples").rglob("*.py"),
                 *(root / ".github" / "workflows").glob("*.yml")]:
        text = path.read_text()
        words.update(re.findall(r"\w+", _EXPORT.sub("", text)))
        if SRC in path.parents:
            defined.update(_DEFINITION.findall(text))
    unreached = {name for name, count in defined.items()
                 if words[name] <= count}
    stray = sorted(unreached - set(KEPT_FOR_TESTS))
    assert not stray, ("reached by nothing but tests (delete it, or keep it "
                       "in KEPT_FOR_TESTS with a reason): " + ", ".join(stray))
    stale = sorted(set(KEPT_FOR_TESTS) - unreached)
    assert not stale, "reached after all, drop from KEPT_FOR_TESTS: " + \
        ", ".join(stale)
