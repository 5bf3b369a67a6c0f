"""Reproduce the headline bookstore result (Figures 5/6, shopping mix):
PHP and plain servlets stall around the database's lock-contention
plateau while the (sync) variants push the database CPU to 100%.

This is a reduced sweep (three configurations, three client counts) so
it finishes in under a minute; ``python -m repro figure 5`` runs the
complete figure.

Run:  python examples/bookstore_shopping.py
"""

from repro.apps.bookstore import BookstoreApp, build_bookstore_database
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.profiles import profile_application
from repro.topology.configs import (
    WS_PHP_DB,
    WS_SERVLET_DB,
    WS_SERVLET_DB_SYNC,
)


def main():
    print("Building the bookstore and characterizing the workload...")
    app = BookstoreApp(build_bookstore_database())
    profiles = {
        "php": profile_application(app, app.deploy_php(), "php", 3),
        "servlet": profile_application(
            app, app.deploy_servlet(), "servlet", 3),
        "servlet_sync": profile_application(
            app, app.deploy_servlet(sync_locking=True), "servlet_sync", 3),
    }
    mix = app.mix("shopping")

    print(f"\n{'configuration':<22} {'clients':>8} {'ipm':>8} "
          f"{'DB cpu':>8} {'web cpu':>8}")
    for config in (WS_PHP_DB, WS_SERVLET_DB, WS_SERVLET_DB_SYNC):
        for clients in (300, 800, 1400):
            spec = ExperimentSpec(
                config=config, profile=profiles[config.profile_flavor],
                mix=mix, clients=clients, ramp_up=400, measure=450,
                ramp_down=10, ssl_interactions=app.SSL_INTERACTIONS)
            point = run_experiment(spec)
            print(f"{config.name:<22} {clients:>8} "
                  f"{point.throughput_ipm:>8.0f} "
                  f"{100 * point.cpu.database:>7.0f}% "
                  f"{100 * point.cpu.web_server:>7.0f}%")
    print("\nPaper reference: PHP/servlets peak ~520 ipm with the DB CPU "
          "stuck near 70% by MyISAM lock contention; the sync variants "
          "reach ~663-665 ipm at 100% DB CPU.")


if __name__ == "__main__":
    main()
