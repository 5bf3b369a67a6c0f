"""The paper's untested prediction, checked.

Section 7 of the paper says its third benchmark — a bulletin board —
was omitted because "the Web server CPU is the bottleneck ... we expect
the results for the bulletin board to be similar to the auction site."
This example characterizes the bulletin board, prints where each
configuration saturates, and compares the ranking against the auction
site analytically (seconds, no simulation).

Run:  python examples/bulletin_board.py
(or `python -m repro figure extb1` for the simulated experiment, which
checks the auction site's findings on the bulletin board)
"""

from repro.analytic.bounds import bounds_for
from repro.analytic.demand import expected_demands
from repro.apps.auction import AuctionApp, build_auction_database
from repro.apps.bboard import BulletinBoardApp, build_bboard_database
from repro.harness.profiles import profile_all_flavors
from repro.topology.configs import ALL_CONFIGURATIONS


def saturation_table(app, profiles, mix_name):
    mix = app.mix(mix_name)
    out = {}
    for config in ALL_CONFIGURATIONS:
        table = expected_demands(config, profiles[config.profile_flavor],
                                 mix, ssl_interactions=app.SSL_INTERACTIONS)
        bounds = bounds_for(table)
        out[config.name] = (60 * bounds.saturation_throughput,
                            bounds.bottleneck,
                            bounds.knee_population)
    return out


def main():
    print("Characterizing the bulletin board and the auction site...")
    bboard = BulletinBoardApp(build_bboard_database())
    auction = AuctionApp(build_auction_database())
    bboard_profiles = profile_all_flavors(bboard, repetitions=3)
    auction_profiles = profile_all_flavors(auction, repetitions=3)

    bboard_peaks = saturation_table(bboard, bboard_profiles, "submission")
    auction_peaks = saturation_table(auction, auction_profiles, "bidding")

    print(f"\n{'configuration':<22} {'bboard ipm':>11} {'bneck':>8} "
          f"{'knee':>6}   {'auction ipm':>11} {'bneck':>8}")
    for name in bboard_peaks:
        b_ipm, b_bn, b_knee = bboard_peaks[name]
        a_ipm, a_bn, __ = auction_peaks[name]
        print(f"{name:<22} {b_ipm:>11.0f} {b_bn:>8} {b_knee:>6.0f}   "
              f"{a_ipm:>11.0f} {a_bn:>8}")

    b_rank = sorted(bboard_peaks, key=lambda k: -bboard_peaks[k][0])
    a_rank = sorted(auction_peaks, key=lambda k: -auction_peaks[k][0])
    print(f"\nbulletin-board ranking: {b_rank}")
    print(f"auction-site ranking:   {a_rank}")
    verdict = "HOLDS" if b_rank[-1] == a_rank[-1] and \
        set(b_rank[:2]) == set(a_rank[:2]) else "DOES NOT HOLD"
    print(f"\nPaper's prediction {verdict}: the bulletin board is "
          "front-end bound and orders the six configurations like the "
          "auction site.")


if __name__ == "__main__":
    main()
