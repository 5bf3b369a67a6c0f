"""Extension experiments end to end: rendered text, jobs parity, CLI.

``tests/golden/ext_tiny_text.json`` holds the rendered text of the five
extension experiments at their tiny scale, generated at the commit
*before* the drivers were moved onto the shared spec builder and
``run_points`` (882b022).  The drivers must keep printing exactly that,
with one documented difference: ``scale``'s zero-replica row now runs
the paper configuration itself, so its label loses the ``(1+0)`` suffix
(the numbers are identical -- ``legacy_trivial_cluster_identical`` in
``tests/test_axis_isolation.py`` proves that).

Regenerate (only when an intentional behavior change lands)::

    PYTHONPATH=src python tests/test_ext_experiments.py
"""

import json
import os
from importlib import import_module

import pytest

import repro.apps
from repro.__main__ import COMMANDS, main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "ext_tiny_text.json")


#: Command -> the driver arguments that select the slice the golden holds.
SLICES = {"scale": {}, "cache": dict(mixes=("browsing",)), "shard": {},
          "slo": dict(configs=("WsPhp-DB",)),
          "faults": dict(configs=("WsPhp-DB",))}


def _driver(name):
    row = COMMANDS[name]
    return getattr(import_module(f"repro.experiments.{row['module']}"),
                   row["driver"])


def _tiny(name, **kwargs):
    return _driver(name)(scale="tiny", **{**SLICES[name], **kwargs})


#: The two configurations of the pooled ``faults`` run.
POOLED_FAULTS = dict(jobs=2, configs=("WsPhp-DB", "WsServlet-DB"))


def _pooled_faults(reports):
    """Two configurations over the pool; without the second one's row
    the text is the one-configuration serial text."""
    lines = reports("faults", **POOLED_FAULTS).render().splitlines()
    extra = [line for line in lines if line.startswith("WsServlet-DB ")]
    assert len(extra) == 1 and " 10s " in extra[0]
    return "\n".join(line for line in lines if line not in extra)


# Part of an experiment's points over a 2-worker pool.  Reports render
# section by section, so the text of the first mix alone (``scale``), or
# of the sweep without the chaos run (``slo``; 0.8 s saved), is a prefix
# of the full serial text.
POOLED = {
    "scale": lambda __: _tiny("scale", mixes=("shopping",), jobs=2).render(),
    "slo": lambda __: _tiny("slo", no_chaos=True, jobs=2).render(),
    "faults": _pooled_faults}


def _golden(name):
    with open(GOLDEN_PATH) as fh:
        text = json.load(fh)[name]
    # The one documented difference (the label column is padded, so the
    # dropped suffix becomes five spaces of padding).
    return text.replace("(1+0)", " " * 5)


@pytest.fixture(scope="module")
def reports():
    """Each experiment's report for ``kwargs``, run once per module."""
    cache = {}

    def get(name, **kwargs):
        key = (name, *sorted(kwargs.items()))
        if key not in cache:
            cache[key] = _tiny(name, **kwargs)
        return cache[key]
    return get


@pytest.mark.parametrize("name", sorted(SLICES))
def test_tiny_text_matches_golden(name, reports):
    assert reports(name).render() == _golden(name)


def test_tiny_reports_hold_what_they_print(reports):
    """The rows behind the ``cache``, ``shard`` and ``faults`` text."""
    cache = reports("cache")
    rows = cache.mixes["browsing"]
    assert len(rows) == 2
    assert cache.baseline("browsing").key == (0, 0.0)
    assert not hasattr(cache.baseline("browsing").peak, "cache")
    cached_row, = (row for row in rows if row.key[0] > 0)
    assert cached_row.peak.cache.hit_rate > 0
    assert "Cache" in cached_row.configuration
    shard = reports("shard")
    assert len(shard.rows) == 2
    assert all(row.peak.throughput_ipm > 0 for row in shard.rows)
    text = shard.render()
    assert "DB[2]" in text and "vs repl" in text
    # Every configuration has a database machine: a database crash spares
    # none of them, the outage shows in goodput and errors, and goodput
    # climbs back to >= 90% of its pre-fault level after the restart.
    for summary in reports("faults", **POOLED_FAULTS).summaries:
        assert not summary.contained
        assert summary.during_goodput_ipm < 0.5 * summary.pre_goodput_ipm
        assert summary.timeouts + summary.aborts + summary.rejections > 0
        assert summary.retries > 0
        assert summary.recovery_time_s is not None
        assert summary.post_goodput_ipm >= 0.9 * summary.pre_goodput_ipm


@pytest.mark.parametrize("name", sorted(POOLED))
def test_jobs2_prints_what_jobs1_prints(name, reports):
    pooled = POOLED[name](reports)
    assert len(pooled) > 400 and reports(name).render().startswith(pooled)


@pytest.mark.parametrize("name", sorted(SLICES))
def test_unknown_scale_names_the_known_ones(name):
    with pytest.raises(KeyError, match=r"unknown scale 'nope'; "
                                       r"have \['full', 'quick', 'tiny'\]"):
        _driver(name)(scale="nope")


# -- the command line ---------------------------------------------------------


@pytest.fixture
def no_apps(monkeypatch):
    """An empty app cache for the test; the real one comes back after."""
    monkeypatch.setattr(repro.apps, "_APP_CACHE", {})
    return repro.apps._APP_CACHE


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_contract(command, no_apps, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    if "--config" in COMMANDS[command].get("flags", ()):
        positional = ["5"] if command in FIGURE_COMMANDS else []
        assert main([command, *positional, "--config", "NoSuchConfig"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration 'NoSuchConfig'" in err
        assert "WsPhp-DB" in err                # the known names follow
    assert no_apps == {}


FIGURE_COMMANDS = sorted(name for name, row in COMMANDS.items()
                         if "figure" in row.get("args", ()))


@pytest.mark.parametrize("command", FIGURE_COMMANDS)
def test_unknown_figure_is_rejected_before_any_work(command, no_apps,
                                                    capsys):
    assert FIGURE_COMMANDS == ["figure", "trace"]
    assert main([command, "fig99"]) == 2
    assert capsys.readouterr().err == (
        f"repro {command}: error: unknown figure 'fig99'; "
        f"try 'python -m repro figures'\n")
    assert no_apps == {}


def test_unknown_mix_is_rejected_before_any_work(no_apps, capsys):
    assert main(["shard", "--mix", "nosuch", "--scale", "tiny"]) == 2
    assert "browsing, ordering, shopping" in capsys.readouterr().err
    # A real mix of the wrong application is just as unknown.
    assert main(["slo", "--mix", "bidding"]) == 2
    assert "unknown bookstore mix 'bidding'" in capsys.readouterr().err
    assert no_apps == {}


@pytest.mark.parametrize("argv, error", [
    (["scale", "--scale", "tiny", "--jobs", "1", "--replicas", "-1"],
     "repro scale: error: argument --replicas: must be >= 0, got -1"),
    (["trace", "5", "--config", "WsPhp-DB", "--clients", "-3"],
     "repro trace: error: argument --clients: must be >= 1, got -3"),
    (["trace", "fig06", "--clients", "0"],
     "repro trace: error: argument --clients: must be >= 1, got 0"),
])
def test_impossible_counts_are_refused_by_the_parser(argv, error, no_apps,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if "error:" in line] == [error]
    assert no_apps == {}


def test_bad_repro_jobs_only_fails_commands_that_take_jobs(
        monkeypatch, no_apps, capsys):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert main(["version"]) == 0
    assert main(["figures"]) == 0
    capsys.readouterr()
    for command in (["scale", "--scale", "tiny"], ["trace", "fig06"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "REPRO_JOBS must be an integer" in err
        assert err.count("\n") == 1             # one line, no traceback
    assert no_apps == {}


def _regenerate():
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({name: _tiny(name).render() for name in SLICES}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
