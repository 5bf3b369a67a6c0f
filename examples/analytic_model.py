"""Explain the figures with queueing theory: service demands + MVA.

The demand calculator reads one interaction's CPU on every machine of a
configuration from the simulator's own charges (each variant runs once,
alone, on an idle site); exact Mean Value Analysis -- the independent
queueing model -- then predicts the whole throughput curve in
microseconds, with no simulation of the client population.  For workloads
without database lock contention the two agree (a consistency test in
tests/test_analytic.py enforces it); the *difference* between MVA and
the simulator on write-heavy mixes is precisely the cost of MyISAM's
table locks.

Run:  python examples/analytic_model.py
"""

from repro.analytic.demand import expected_demands
from repro.analytic.mva import throughput_curve
from repro.apps.auction import AuctionApp, build_auction_database
from repro.harness.profiles import profile_application
from repro.topology.configs import ALL_CONFIGURATIONS


def main():
    print("Characterizing the auction site...")
    app = AuctionApp(build_auction_database())
    profiles = {
        "php": profile_application(app, app.deploy_php(), "php", 3),
        "servlet": profile_application(app, app.deploy_servlet(),
                                       "servlet", 3),
    }
    profiles["servlet_sync"] = profiles["servlet"]
    presentation, __ = app.deploy_ejb()
    profiles["ejb"] = profile_application(app, presentation, "ejb", 2)
    mix = app.mix("bidding")

    print("\nPer-interaction CPU demand (ms) by machine, bidding mix:")
    tables = {}
    for config in ALL_CONFIGURATIONS:
        if config.flavor == "servlet_sync":
            continue  # same demands as the non-sync servlet flavor
        table = expected_demands(config, profiles[config.profile_flavor],
                                 mix, ssl_interactions=app.SSL_INTERACTIONS)
        tables[config.name] = table
        demands = ", ".join(f"{m}={1000 * d:.2f}"
                            for m, d in table.cpu_seconds.items())
        print(f"  {config.name:<20} {demands}")
        print(f"  {'':<20} bottleneck={table.bottleneck()}, "
              f"saturation ~{60 * table.max_throughput():.0f} ipm")

    print("\nMVA throughput curve for WsPhp-DB (7 s think time):")
    curve = throughput_curve(tables["WsPhp-DB"], (100, 400, 800, 1200, 1600))
    for point in curve:
        busiest = max(point.utilization, key=point.utilization.get)
        print(f"  {point.clients:>6} clients -> {point.throughput_ipm:7.0f} "
              f"ipm, R={point.response_time * 1000:6.1f} ms, "
              f"{busiest}={100 * point.utilization[busiest]:.0f}%")
    print("\nCompare with the paper's Figure 11: PHP saturates the web "
          "server CPU near 9,800 interactions/minute.")


if __name__ == "__main__":
    main()
