"""Tests for the figure registry and experiment plumbing."""

import pytest

from repro.experiments.common import FigureSpec, Phases, run_figure_spec
from repro.experiments.registry import (
    ALL_FIGURE_SPECS,
    FIGURES,
    figure_spec,
)
from repro.topology.configs import ALL_CONFIGURATIONS


def test_registry_has_all_ten_figures():
    assert sorted(FIGURES) == [f"fig{n:02d}" for n in range(5, 15)]


def test_throughput_and_cpu_share_a_spec():
    spec5, kind5 = FIGURES["fig05"]
    spec6, kind6 = FIGURES["fig06"]
    assert spec5 is spec6
    assert kind5 == "throughput" and kind6 == "cpu"


def test_figure_spec_lookup():
    assert figure_spec("fig11").app_name == "auction"
    with pytest.raises(KeyError):
        figure_spec("fig99")


def test_every_spec_covers_all_configurations():
    for spec in ALL_FIGURE_SPECS:
        assert set(spec.grids) == {c.name for c in ALL_CONFIGURATIONS}
        for name in spec.grids:
            quick = spec.grid_for(name, full=False)
            complete = spec.grid_for(name, full=True)
            assert len(complete) >= len(quick) >= 2


def test_mix_names_resolve():
    from repro.experiments.common import get_app
    for spec in ALL_FIGURE_SPECS:
        app = get_app(spec.app_name)
        assert app.mix(spec.mix_name)


@pytest.mark.slow
def test_run_tiny_figure_end_to_end():
    """A miniature sweep through the full figure pipeline."""
    base = figure_spec("fig11")
    tiny = FigureSpec(
        throughput_figure="tiny11", cpu_figure="tiny12",
        title="tiny", app_name="auction", mix_name="bidding",
        grids={c.name: ((50,), (50,)) for c in ALL_CONFIGURATIONS})
    report = run_figure_spec(
        tiny, full=False,
        configurations=("WsPhp-DB", "Ws-Servlet-EJB-DB"),
        phases=Phases(20.0, 40.0, 2.0))
    assert set(report.series) == {"WsPhp-DB", "Ws-Servlet-EJB-DB"}
    for series in report.series.values():
        assert len(series.points) == 1
        assert series.points[0].throughput_ipm > 0
    text = report.render_throughput_table()
    assert "WsPhp-DB" in text
    cpu_text = report.render_cpu_table()
    assert "EJB Server" in cpu_text


def test_cli_figures_and_version(capsys):
    from repro.__main__ import main
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out and "fig14" in out
    assert main(["version"]) == 0
    assert main(["figure", "fig99"]) == 2


def test_cli_parser_rejects_no_command():
    import pytest as _pytest
    from repro.__main__ import build_parser
    with _pytest.raises(SystemExit):
        build_parser().parse_args([])
