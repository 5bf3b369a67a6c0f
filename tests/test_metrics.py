"""Tests for the sysstat sampler and report structures."""

import pytest

from repro.machine import Machine
from repro.metrics.report import (
    ConfigurationSeries,
    CpuUtilization,
    ExperimentReport,
    ThroughputPoint,
)
from repro.metrics.sampler import SysstatSampler
from repro.net import Lan
from repro.sim import Simulator


def test_sampler_measures_cpu_utilization():
    sim = Simulator()
    machine = Machine(sim, "m")
    sampler = SysstatSampler(sim, {"m": machine}, interval=1.0)
    sampler.start()

    def load():
        # 50% duty cycle: 0.5 s busy, 0.5 s idle.
        for __ in range(10):
            yield from machine.cpu.execute(0.5)
            yield 0.5

    sim.spawn(load())
    sim.run(until=10.0)
    mean = sampler.mean_cpu("m", 0.0, 10.0)
    assert mean == pytest.approx(0.5, abs=0.05)


def test_sampler_window_selection():
    sim = Simulator()
    machine = Machine(sim, "m")
    sampler = SysstatSampler(sim, {"m": machine}, interval=1.0)
    sampler.start()

    def load():
        yield 5.0
        yield from machine.cpu.execute(5.0)

    sim.spawn(load())
    sim.run(until=10.0)
    assert sampler.mean_cpu("m", 0.0, 5.0) == pytest.approx(0.0)
    assert sampler.mean_cpu("m", 5.0, 10.0) == pytest.approx(1.0)


def test_sampler_nic_rates():
    sim = Simulator()
    lan = Lan(sim)
    a, b = Machine(sim, "a"), Machine(sim, "b")
    lan.attach(a)
    lan.attach(b)
    sampler = SysstatSampler(sim, {"a": a}, interval=1.0)
    sampler.start()

    def flow():
        for __ in range(10):
            yield from lan.transfer(a, b, 125_000)  # 1 Mb each
            yield 0.9

    sim.spawn(flow())
    sim.run(until=10.0)
    assert sampler.mean_nic_tx_mbps("a", 0.0, 10.0) == pytest.approx(
        1.0, rel=0.15)


def test_sampler_rejects_bad_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        SysstatSampler(sim, {}, interval=0)


def test_empty_window_is_zero():
    sim = Simulator()
    machine = Machine(sim, "m")
    sampler = SysstatSampler(sim, {"m": machine})
    assert sampler.mean_cpu("m", 0.0) == 0.0


# ------------------------------------------------------------------ reports

def make_point(clients, ipm, web=0.5, db=0.9):
    return ThroughputPoint(
        clients=clients, throughput_ipm=ipm,
        cpu=CpuUtilization(web_server=web, database=db))


def test_series_peak():
    series = ConfigurationSeries("X")
    series.add(make_point(100, 500))
    series.add(make_point(200, 700))
    series.add(make_point(300, 600))
    assert series.peak().clients == 200


def test_series_peak_empty_raises():
    with pytest.raises(ValueError):
        ConfigurationSeries("X").peak()


def test_report_renders_tables():
    report = ExperimentReport(title="T", workload="w")
    series = report.series["WsPhp-DB"] = ConfigurationSeries("WsPhp-DB")
    series.add(make_point(100, 520))
    series.add(make_point(200, 480))
    text = report.render_throughput_table()
    assert "WsPhp-DB" in text
    assert "520" in text
    assert "peaks:" in text
    cpu_text = report.render_cpu_table()
    assert "Database" in cpu_text
    assert "90.0" in cpu_text


def test_cpu_utilization_row_includes_optional_roles():
    cpu = CpuUtilization(web_server=0.1, database=0.2,
                         servlet_container=0.3, ejb_server=0.4)
    row = cpu.as_row()
    assert row["Servlet Container"] == 30.0
    assert row["EJB Server"] == 40.0
    bare = CpuUtilization(web_server=0.1, database=0.2).as_row()
    assert "EJB Server" not in bare


def test_report_peaks_mapping():
    report = ExperimentReport(title="T", workload="w")
    report.series["A"] = ConfigurationSeries("A")
    report.series["A"].add(make_point(10, 100))
    report.series["B"] = ConfigurationSeries("B")
    report.series["B"].add(make_point(10, 200))
    peaks = report.peaks()
    assert peaks["B"].throughput_ipm == 200


def test_report_csv_export(tmp_path):
    report = ExperimentReport(title="T", workload="w")
    series = report.series["WsPhp-DB"] = ConfigurationSeries("WsPhp-DB")
    series.add(make_point(100, 520))
    series.add(make_point(50, 300))
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0].startswith("configuration,clients")
    # Points come out sorted by client count.
    assert lines[1].startswith("WsPhp-DB,50,")
    assert lines[2].startswith("WsPhp-DB,100,520.0")
    path = tmp_path / "fig.csv"
    report.save_csv(path)
    assert path.read_text().strip() == csv_text
