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

import pytest

import repro.apps
from repro.__main__ import COMMANDS, main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "ext_tiny_text.json")


def _scale(**kwargs):
    from repro.experiments.ext_scaleout import render
    return render(scale="tiny", **kwargs)


def _cache(**kwargs):
    from repro.experiments.ext_cache import render
    return render(scale="tiny", mix_names=("browsing",), **kwargs)


def _shard(**kwargs):
    from repro.experiments.ext_shard import render
    return render(scale="tiny", **kwargs)


def _slo(**kwargs):
    from repro.experiments.ext_slo import render
    return render(scale="tiny", configurations=("WsPhp-DB",), **kwargs)


def _faults(**kwargs):
    from repro.experiments.ext_failover import render
    return render(scale="tiny", configurations=("WsPhp-DB",), **kwargs)


RENDERERS = {"scale": _scale, "cache": _cache, "shard": _shard,
             "slo": _slo, "faults": _faults}

# The part of an experiment that fans out, run over a 2-worker pool.
# Reports render section by section, so the text of the first mix alone
# (``scale``), or of the sweep without the always-in-process chaos run
# (``slo``), is a prefix of the full serial text.
POOLED = {"scale": lambda: _scale(mix_names=("shopping",), jobs=2),
          "slo": lambda: _slo(chaos=False, jobs=2)}


def _golden(name):
    with open(GOLDEN_PATH) as fh:
        text = json.load(fh)[name]
    # The one documented difference (the label column is padded, so the
    # dropped suffix becomes five spaces of padding).
    return text.replace("(1+0)", " " * 5)


@pytest.fixture(scope="module")
def rendered():
    """Each experiment's serial text, rendered once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = RENDERERS[name]()
        return cache[name]
    return get


@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_tiny_text_matches_golden(name, rendered):
    assert rendered(name) == _golden(name)


@pytest.mark.parametrize("name", sorted(POOLED))
def test_jobs2_prints_what_jobs1_prints(name, rendered):
    pooled = POOLED[name]()
    assert len(pooled) > 400 and rendered(name).startswith(pooled)


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
        positional = ["5"] if command == "figure" else []
        assert main([command, *positional, "--config", "NoSuchConfig"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration 'NoSuchConfig'" in err
        assert "WsPhp-DB" in err                # the known names follow
    assert no_apps == {}


def test_unknown_mix_is_rejected_before_any_work(no_apps, capsys):
    assert main(["shard", "--mix", "nosuch", "--scale", "tiny"]) == 2
    assert "browsing, ordering, shopping" in capsys.readouterr().err
    # A real mix of the wrong application is just as unknown.
    assert main(["slo", "--mix", "bidding"]) == 2
    assert "unknown bookstore mix 'bidding'" in capsys.readouterr().err
    assert no_apps == {}


def test_bad_repro_jobs_only_fails_commands_that_take_jobs(
        monkeypatch, no_apps, capsys):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert main(["version"]) == 0
    assert main(["figures"]) == 0
    capsys.readouterr()
    assert main(["scale", "--scale", "tiny"]) == 2
    err = capsys.readouterr().err
    assert "REPRO_JOBS must be an integer" in err
    assert err.count("\n") == 1                 # one line, no traceback
    assert no_apps == {}


def _regenerate():
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({name: fn() for name, fn in RENDERERS.items()}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
