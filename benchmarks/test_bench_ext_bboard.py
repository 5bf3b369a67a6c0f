"""Extension bench: the bulletin-board prediction (paper §7).

The paper expects its third benchmark to "be similar to the auction
site" because the web server CPU is its bottleneck.  This bench runs
the bulletin-board submission mix through all six configurations on a
reduced grid and asserts the auction-shaped ordering.
"""

from repro.experiments.common import Phases, run_figure_spec
from repro.experiments.registry import BBOARD_SUBMISSION


def run_bboard(state):
    if "bboard" in state:
        return state["bboard"]
    report = run_figure_spec(BBOARD_SUBMISSION,
                             phases=Phases(90.0, 120.0, 5.0))
    state["bboard"] = report
    return report


def test_bench_ext_bboard(benchmark, bench_state):
    report = benchmark.pedantic(run_bboard, args=(bench_state,),
                                rounds=1, iterations=1)
    print()
    print(report.render_throughput_table())
    print()
    print(report.render_cpu_table())
    peaks = report.peaks()
    # The auction-site shape (paper's prediction):
    assert peaks["WsPhp-DB"].throughput_ipm > \
        peaks["WsServlet-DB"].throughput_ipm
    assert peaks["Ws-Servlet-DB"].throughput_ipm > \
        peaks["WsPhp-DB"].throughput_ipm
    assert peaks["Ws-Servlet-EJB-DB"].throughput_ipm == \
        min(p.throughput_ipm for p in peaks.values())
    # Front-end bound: the generator CPU saturates, never the database.
    assert peaks["WsPhp-DB"].cpu.web_server > 0.85
    assert peaks["WsPhp-DB"].cpu.database < 0.6
    assert peaks["Ws-Servlet-DB"].cpu.servlet_container > 0.85
