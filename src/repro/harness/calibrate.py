"""Calibration targets and the calibration report.

The cost constants scattered across the components (db/cost.py,
middleware cost tables, web/server.py) were tuned so that the analytic
service demands put each configuration's saturation point near the
paper's measured peaks.  This module records those paper targets and
prints a side-by-side report -- run it after changing any constant:

    python -m repro calibrate
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class PaperTarget:
    """One headline number from the paper's evaluation."""

    app: str
    mix: str
    configuration: str
    peak_ipm: Optional[float]       # None where the paper gives no number
    note: str = ""


# Every scalar the paper states explicitly (sections 5 and 6).
PAPER_TARGETS = (
    PaperTarget("bookstore", "shopping", "WsPhp-DB", 520.0,
                "peak; DB ~70% (lock contention)"),
    PaperTarget("bookstore", "shopping", "WsServlet-DB", 520.0,
                "same queries as PHP -> same throughput"),
    PaperTarget("bookstore", "shopping", "WsServlet-DB(sync)", 663.0,
                "DB CPU reaches 100%"),
    PaperTarget("bookstore", "shopping", "Ws-Servlet-DB(sync)", 665.0,
                "DB CPU reaches 100%"),
    PaperTarget("bookstore", "shopping", "Ws-Servlet-EJB-DB", None,
                "worst; DB CPU 100% from CMP query flood"),
    PaperTarget("auction", "bidding", "WsPhp-DB", 9780.0,
                "peak at 1,100 clients; web CPU 100%"),
    PaperTarget("auction", "bidding", "WsServlet-DB", 7380.0,
                "peak at 700 clients; web CPU 100%"),
    PaperTarget("auction", "bidding", "Ws-Servlet-DB", 10440.0,
                "peak at 1,200 clients; servlet CPU bottleneck"),
    PaperTarget("auction", "bidding", "Ws-Servlet-EJB-DB", 4136.0,
                "EJB server CPU 99%; DB 17%; ~2,000 packets/s to DB"),
    PaperTarget("auction", "browsing", "Ws-Servlet-DB", 12000.0,
                "at 12,000 clients; web machine ~94 Mb/s"),
    PaperTarget("auction", "browsing", "WsPhp-DB", None,
                "~25% above WsServlet-DB"),
)


def calibration_report() -> str:
    """Analytic saturation peaks vs the paper targets, as text."""
    from repro.analytic.demand import expected_demands
    from repro.apps import build_app
    from repro.harness.profiles import get_profiles
    from repro.topology.configs import ALL_CONFIGURATIONS

    lines = ["Calibration: analytic saturation vs paper peaks", ""]
    demands: Dict[tuple, float] = {}
    for app_name in ("bookstore", "auction"):
        app = build_app(app_name)
        profiles = get_profiles(app_name)
        mixes = ("browsing", "shopping", "ordering") \
            if app_name == "bookstore" else ("bidding", "browsing")
        for mix_name in mixes:
            mix = app.mix(mix_name)
            for config in ALL_CONFIGURATIONS:
                table = expected_demands(
                    config, profiles[config.profile_flavor], mix,
                    ssl_interactions=app.SSL_INTERACTIONS)
                demands[(app_name, mix_name, config.name)] = \
                    60.0 * table.max_throughput()
    lines.append(f"{'app/mix/configuration':<48} {'model':>8} "
                 f"{'paper':>8}  note")
    for target in PAPER_TARGETS:
        key = (target.app, target.mix, target.configuration)
        model = demands.get(key)
        label = f"{target.app}/{target.mix}/{target.configuration}"
        paper = f"{target.peak_ipm:.0f}" if target.peak_ipm else "-"
        model_text = f"{model:.0f}" if model else "-"
        lines.append(f"{label:<48} {model_text:>8} {paper:>8}  "
                     f"{target.note}")
    lines.append("")
    lines.append("The analytic number is the no-contention saturation "
                 "point; configurations the paper reports as lock-limited "
                 "(bookstore non-sync) peak below it in the simulator.")
    return "\n".join(lines)

