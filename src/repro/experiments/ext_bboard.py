"""Extension experiment: the bulletin-board prediction.

The paper's related-work section explains why its third benchmark was
left out: "the Web server CPU is the bottleneck for the bulletin board.
Therefore, we expect the results for the bulletin board to be similar
to the auction site."  This module runs the bulletin board through the
same six configurations and prints the comparison, so the prediction is
checked rather than assumed.

Run:  python -m repro bboard [--full]
"""

from __future__ import annotations

from repro.experiments.common import run_figure_spec
from repro.experiments.registry import AUCTION_BIDDING, BBOARD_SUBMISSION


def run(full: bool = False, jobs=None):
    """Run both sweeps; returns (bboard_report, auction_report)."""
    bboard = run_figure_spec(BBOARD_SUBMISSION, full=full, jobs=jobs)
    auction = run_figure_spec(AUCTION_BIDDING, full=full, jobs=jobs)
    return bboard, auction


def render(full: bool = False, jobs=None) -> str:
    bboard, auction = run(full=full, jobs=jobs)
    lines = [bboard.render_throughput_table(), "",
             bboard.render_cpu_table(), "",
             "--- prediction check: same ordering as the auction site? ---"]
    b_peaks = bboard.peaks()
    a_peaks = auction.peaks()
    b_order = sorted(b_peaks, key=lambda k: -b_peaks[k].throughput_ipm)
    a_order = sorted(a_peaks, key=lambda k: -a_peaks[k].throughput_ipm)
    lines.append(f"bulletin board ranking: {b_order}")
    lines.append(f"auction site ranking:   {a_order}")
    agree = b_order[0] in a_order[:2] and b_order[-1] == a_order[-1]
    lines.append("prediction " + ("HOLDS" if agree else "DOES NOT HOLD") +
                 ": dedicated-servlet placements lead, EJB trails, and "
                 "the front end (not the database) saturates.")
    return "\n".join(lines)

