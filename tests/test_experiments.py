"""Tests for the figure registry and experiment plumbing."""

from types import SimpleNamespace

import pytest

from repro.experiments.common import (
    FigureSpec,
    Phases,
    faster,
    ranks,
    render_findings,
    run_figure_spec,
)
from repro.experiments.registry import (
    ALL_FIGURE_SPECS,
    FIGURES,
    figure_spec,
    normalize_figure_id,
)
from repro.metrics.report import (
    ConfigurationSeries,
    CpuUtilization,
    ExperimentReport,
    ThroughputPoint,
)
from repro.topology.configs import ALL_CONFIGURATIONS


def test_registry_has_all_ten_figures():
    """The paper's ten, plus the bulletin-board extension pair."""
    assert sorted(FIGURES) == ["extb1", "extb2"] + [
        f"fig{n:02d}" for n in range(5, 15)]


def test_throughput_and_cpu_share_a_spec():
    spec5, kind5 = FIGURES["fig05"]
    spec6, kind6 = FIGURES["fig06"]
    assert spec5 is spec6
    assert kind5 == "throughput" and kind6 == "cpu"


def test_figure_spec_lookup():
    assert figure_spec("fig11").app_name == "auction"
    assert [normalize_figure_id(given) for given in ("extB1", "EXTB2",
            "FIG13", "13")] == ["extb1", "extb2", "fig13", "fig13"]
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
    from repro.apps import build_app
    for spec in ALL_FIGURE_SPECS:
        app = build_app(spec.app_name)
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


def _report(ipm_by_config):
    """A hand-built report: one point per configuration."""
    report = ExperimentReport("t", "w")
    for name, ipm in ipm_by_config.items():
        report.series[name] = ConfigurationSeries(name)
        report.series[name].add(ThroughputPoint(
            100, ipm, CpuUtilization(0.5, 0.9, 0.4, 0.3)))
    return report


def test_findings_hold_fail_and_skip_what_did_not_run():
    spec = FigureSpec("x1", "x2", "t", "bookstore", "shopping", findings=(
        faster("WsPhp-DB", "WsServlet-DB", "1.30x"),
        faster("WsServlet-DB", "WsPhp-DB", "0.77x"),
        ranks("Ws-Servlet-EJB-DB", "lowest")))
    title, header, *rows = render_findings(
        spec, _report({"WsPhp-DB": 500.0, "WsServlet-DB": 400.0})
    ).splitlines()
    assert header.split() == ["finding", "paper", "measured", "status"]
    assert rows[0].split() == ["WsPhp-DB", "peak", ">", "WsServlet-DB",
                               "1.30x", "1.25x", "holds"]
    assert rows[1].split()[-2:] == ["0.80x", "FAILS"]
    assert len(rows) == 2          # no EJB configuration ran


def test_every_registered_finding_renders():
    peaks = {name: 1000.0 - 100 * i for i, name in enumerate(
        c.name for c in ALL_CONFIGURATIONS)}
    for spec in ALL_FIGURE_SPECS:
        rows = render_findings(spec, _report(peaks)).splitlines()[2:]
        assert len(rows) == len(spec.findings) > 0
        assert all(row.endswith(("holds", "FAILS")) for row in rows)


def test_figure_runs_its_sweep_once(monkeypatch, tmp_path, capsys):
    """``figure 5 --csv PATH --trace``: one sweep feeds the table, the
    findings, the CSV and the traced peaks."""
    import repro.harness.parallel as parallel
    from repro.__main__ import main
    from repro.experiments import trace

    swept, traced = [], []

    def run_points(specs, jobs=None):
        swept.extend((spec.config.name, spec.clients) for spec in specs)
        return [ThroughputPoint(spec.clients, spec.clients, CpuUtilization())
                for spec in specs]

    monkeypatch.setattr(parallel, "run_points", run_points)
    monkeypatch.setattr(trace, "traced", lambda spec, clients: traced.append(
        (spec.config.name, clients)) or SimpleNamespace(bottleneck_report=""))
    monkeypatch.setattr(trace, "render_report", str)
    path = tmp_path / "fig05.csv"
    assert main(["figure", "5", "--csv", str(path), "--trace"]) == 0
    spec = figure_spec("fig05")
    grid = [(name, clients) for name in spec.grids
            for clients in spec.grid_for(name, full=False)]
    assert swept == grid
    assert traced == [(name, max(spec.grid_for(name, full=False)))
                      for name in spec.grids]
    assert len(path.read_text().splitlines()) == 1 + len(grid)
    assert "paper findings" in capsys.readouterr().out


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
